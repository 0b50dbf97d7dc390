"""Independent brute-force oracles the fast implementations are checked
against.  Everything here prefers exhaustive enumeration over cleverness."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from hdalib.errors import AxiomViolation, InterfaceMismatch
from hdalib.hda import DOWN, UP, DeterminismReport, Hda, Path, PathStep
from hdalib.ipomset import IntervalRow, Ipomset, canonicalize


def _bijections(p: Ipomset, q: Ipomset):
    """All label- and flag-respecting bijections p -> q."""
    if p.n != q.n:
        return
    groups: dict = {}
    for j in range(q.n):
        key = (q.labels[j], j in q.source, j in q.target)
        groups.setdefault(key, []).append(j)
    keys = [(p.labels[i], i in p.source, i in p.target) for i in range(p.n)]
    if sorted(keys) != sorted(
        (q.labels[j], j in q.source, j in q.target) for j in range(q.n)
    ):
        return
    slots = {k: list(v) for k, v in groups.items()}
    perms = {k: list(itertools.permutations(v)) for k, v in slots.items()}
    names = list(perms)
    for combo in itertools.product(*(perms[k] for k in names)):
        assignment = dict(zip(names, combo))
        counters = {k: 0 for k in names}
        image = []
        for key in keys:
            image.append(assignment[key][counters[key]])
            counters[key] += 1
        yield tuple(image)


def oracle_isomorphic(p: Ipomset, q: Ipomset) -> bool:
    for f in _bijections(p, q):
        good = True
        for x in range(p.n):
            for y in range(p.n):
                if x == y:
                    continue
                if p.lt(x, y) != q.lt(f[x], f[y]):
                    good = False
                    break
                if p.is_concurrent(x, y) and p.ev(x, y) != q.ev(f[x], f[y]):
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def oracle_subsumes(p: Ipomset, q: Ipomset) -> bool:
    """p refines q: some bijection reflects precedence and preserves the
    event order of p-concurrent pairs."""
    for f in _bijections(p, q):
        good = True
        for x in range(p.n):
            for y in range(p.n):
                if x == y:
                    continue
                if q.lt(f[x], f[y]) and not p.lt(x, y):
                    good = False
                    break
                if p.is_concurrent(x, y) and p.ev(x, y) and not q.ev(f[x], f[y]):
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def oracle_sort_key(p: Ipomset) -> tuple:
    """The order :meth:`Ipomset.sort_key` must give, with the relations
    read through ``lt`` and ``ev`` into tuples of boolean rows."""
    events = range(p.n)
    return (
        p.n,
        p.labels,
        tuple(sorted(p.source)),
        tuple(sorted(p.target)),
        tuple(tuple(p.lt(i, j) for j in events) for i in events),
        tuple(tuple(p.ev(i, j) for j in events) for i in events),
    )


def oracle_refinements(p: Ipomset) -> frozenset[Ipomset]:
    """Every orientation of the event pairs, carrying p's event order on
    the pairs it leaves concurrent, filtered by brute-force subsumption."""
    n = p.n
    pairs = list(itertools.combinations(range(n), 2))
    essential = [
        (i, j) for i in range(n) for j in range(n) if p.ev(i, j) and p.is_concurrent(i, j)
    ]
    out = set()
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        prec = []
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                prec.append((i, j))
            elif c == 2:
                prec.append((j, i))
        try:
            cand = canonicalize(p.labels, p.source, p.target, prec, essential)
        except AxiomViolation:
            continue
        if cand not in out and oracle_subsumes(cand, p):
            out.add(cand)
    return frozenset(out)


def oracle_one_step_refinements(p: Ipomset) -> list[Ipomset]:
    """For every concurrent pair (i, j) in pair order, p's relations read
    through ``lt`` and ``ev`` with i < j added, canonicalized; pairs the
    axioms reject give nothing, and repeats are kept."""
    events = range(p.n)
    prec = [(a, b) for a in events for b in events if p.lt(a, b)]
    evord = [(a, b) for a in events for b in events if p.ev(a, b)]
    out = []
    for i in events:
        for j in events:
            if not p.is_concurrent(i, j):
                continue
            try:
                out.append(canonicalize(p.labels, p.source, p.target, prec + [(i, j)], evord))
            except AxiomViolation:
                continue
    return out


def oracle_glue(p: Ipomset, q: Ipomset) -> Ipomset:
    """P*q from its definition, canonicalized once.  The events are p's,
    then q's non-sources; q's k-th source is p's k-th target, both in
    event order.  Precedence is p's, q's and every pair of a non-target
    of p and a non-source of q; the event order is p's and q's.  Raises
    :class:`InterfaceMismatch` with :func:`hdalib.ipomset.glue`'s message
    when the interface labels differ."""
    pt = p.target_events()
    qs = sorted(q.source, key=lambda e: sum(q.ev(f, e) for f in q.source))
    have, want = tuple(p.labels[e] for e in pt), tuple(q.labels[e] for e in qs)
    if have != want:
        raise InterfaceMismatch(f"target loset {have} does not match source loset {want}")
    into = dict(zip(qs, pt))  # q's event -> its event of p*q
    for e in range(q.n):
        if e not in q.source:
            into[e] = p.n + len(into) - len(qs)
    labels = list(p.labels) + [""] * (q.n - len(qs))
    for e, i in into.items():
        labels[i] = q.labels[e]
    pe, qe = range(p.n), range(q.n)
    prec = [(a, b) for a in pe for b in pe if p.lt(a, b)]
    prec += [(into[a], into[b]) for a in qe for b in qe if q.lt(a, b)]
    prec += [(a, into[b]) for a in pe if a not in p.target for b in qe if b not in q.source]
    evord = [(a, b) for a in pe for b in pe if p.ev(a, b)]
    evord += [(into[a], into[b]) for a in qe for b in qe if q.ev(a, b)]
    return canonicalize(labels, p.source, [into[e] for e in q.target], prec, evord)


def _oracle_step(loset, active, start: bool) -> Ipomset:
    """U↑A (``start``) or U↓A: the events at ``active`` are missing from
    the source or the target interface, and the loset orders them all.
    Positions out of range raise :class:`AxiomViolation`."""
    every, active = range(len(loset)), set(active)
    if any(i not in every for i in active):
        raise AxiomViolation(f"{'starter' if start else 'terminator'} positions out of range")
    rest = [i for i in every if i not in active]
    pairs = list(itertools.combinations(every, 2))
    if start:
        return canonicalize(loset, rest, every, (), pairs)
    return canonicalize(loset, every, rest, (), pairs)


def oracle_starter(loset, active) -> Ipomset:
    return _oracle_step(loset, active, True)


def oracle_terminator(loset, active) -> Ipomset:
    return _oracle_step(loset, active, False)


def oracle_divisions(m: Ipomset) -> frozenset[tuple[Ipomset, Ipomset]]:
    """Every three-way split, no pre-filtering: keep the pairs whose
    :func:`oracle_glue` reproduces m."""
    n = m.n
    out = set()
    for assign in itertools.product((0, 1, 2), repeat=n):
        left = [i for i in range(n) if assign[i] <= 1]
        mid = [i for i in range(n) if assign[i] == 1]
        right = [i for i in range(n) if assign[i] >= 1]
        try:
            p = _restrict(m, left, m.source, mid)
            q = _restrict(m, right, mid, m.target)
            if oracle_glue(p, q) == m:
                out.add((p, q))
        except (AxiomViolation, InterfaceMismatch):
            continue
    return frozenset(out)


def _oracle_quotients(lang, divisions=oracle_divisions) -> dict:
    """P -> P\\L for every prefix P, from the divisions of every member."""
    quotient: dict[Ipomset, set[Ipomset]] = {}
    for m in lang.members:
        for p, q in divisions(m):
            quotient.setdefault(p, set()).add(q)
    return quotient


def oracle_swap_violations(
    lang, divisions=oracle_divisions
) -> tuple[tuple[Ipomset, Ipomset], ...]:
    """Every ordered pair of prefixes (P, Q) with P ⊑ Q and P\\L != Q\\L,
    found by trying all pairs: quotients from the divisions of every member
    (``divisions`` may look up :func:`oracle_divisions` computed earlier),
    subsumption from :func:`oracle_subsumes`; sorted by the sort keys of P
    and Q."""
    quotient = _oracle_quotients(lang, divisions)
    bad = [
        (p, q)
        for p, q in itertools.permutations(quotient, 2)
        if oracle_subsumes(p, q) and quotient[p] != quotient[q]
    ]
    return tuple(sorted(bad, key=lambda t: (t[0].sort_key(), t[1].sort_key())))


@functools.lru_cache(maxsize=1)
def _oracle_quotients_of(lang) -> dict[Ipomset, set[Ipomset]]:
    # the pairs of one language are checked one after another
    return _oracle_quotients(lang)


def oracle_strong_equiv(lang, p: Ipomset, q: Ipomset) -> bool:
    """P and Q are strongly equivalent: equal target signatures, and for
    every set A of removable target positions, (P−A)\\L = (Q−A)\\L.

    The signature is the target loset's labels with the positions of the
    targets that are not sources.  Quotients come from
    :func:`oracle_divisions` of every member, removals from
    :func:`oracle_remove_targets`."""

    def signature(x):
        # the target loset orders the targets by event order
        tgt = sorted(x.target, key=lambda e: sum(x.ev(f, e) for f in x.target))
        removable = tuple(i for i, e in enumerate(tgt) if e not in x.source)
        return tgt, tuple(x.labels[e] for e in tgt), removable

    tp, labels_p, removable = signature(p)
    tq, labels_q, removable_q = signature(q)
    if (labels_p, removable) != (labels_q, removable_q):
        return False
    quotient = _oracle_quotients_of(lang)
    for k in range(len(removable) + 1):
        for positions in itertools.combinations(removable, k):
            rp = oracle_remove_targets(p, [tp[i] for i in positions])
            rq = oracle_remove_targets(q, [tq[i] for i in positions])
            if quotient.get(rp, set()) != quotient.get(rq, set()):
                return False
    return True


def oracle_moments(p: Ipomset) -> list[frozenset[int]]:
    """The maximal antichains of p's precedence, found among all subsets of
    events, in temporal order: by the number of events below them."""

    def concurrent(i, j):
        return not p.lt(i, j) and not p.lt(j, i)

    def antichain(a):
        return all(concurrent(i, j) for i, j in itertools.combinations(a, 2))

    def maximal(a):
        return not any(all(concurrent(x, i) for i in a) for x in range(p.n) if x not in a)

    def below(a):
        return sum(any(p.lt(x, i) for i in a) for x in range(p.n))

    found = [
        frozenset(a)
        for k in range(1, p.n + 1)
        for a in itertools.combinations(range(p.n), k)
        if antichain(a) and maximal(a)
    ]
    return sorted(found, key=below)


def oracle_interval_rows(p: Ipomset) -> tuple[IntervalRow, ...]:
    """An interval representation of p: event x spans the moments
    (:func:`oracle_moments`) from the first that holds it to the last, and
    the rows list the events by their number of event-order predecessors,
    then by index, which extends the event order."""
    ants = oracle_moments(p)
    preds = [sum(p.ev(y, x) for y in range(p.n)) for x in range(p.n)]
    rows = []
    for x in sorted(range(p.n), key=lambda x: (preds[x], x)):
        held = [k for k, a in enumerate(ants) if x in a]
        rows.append(
            IntervalRow(
                f"e{x}", p.labels[x], Fraction(held[0]), Fraction(held[-1]),
                x in p.source, x in p.target,
            )
        )
    return tuple(rows)


def oracle_remove_targets(p: Ipomset, events) -> Ipomset:
    """P − A by canonicalizing the other events with all their relations."""
    return _restrict(p, [i for i in range(p.n) if i not in set(events)], p.source, p.target)


def _restrict(m, events, source, target):
    keep = sorted(events)
    idx = {e: k for k, e in enumerate(keep)}
    return canonicalize(
        [m.labels[e] for e in keep],
        [idx[e] for e in source if e in idx],
        [idx[e] for e in target if e in idx],
        [(idx[a], idx[b]) for a in keep for b in keep if m.lt(a, b)],
        [(idx[a], idx[b]) for a in keep for b in keep if m.ev(a, b)],
    )


def oracle_cut(p: Ipomset, order) -> tuple:
    """The labels, interfaces and relation pairs of p on the events
    ``order``, with ``order[k]`` renumbered to k, read pair by pair
    through ``lt`` and ``ev``."""
    k = range(len(order))
    return (
        tuple(p.labels[e] for e in order),
        frozenset(i for i in k if order[i] in p.source),
        frozenset(i for i in k if order[i] in p.target),
        frozenset((i, j) for i in k for j in k if p.lt(order[i], order[j])),
        frozenset((i, j) for i in k for j in k if p.ev(order[i], order[j])),
    )


def oracle_reachability(x: Hda) -> tuple[frozenset[str], frozenset[str]]:
    """Accessible and coaccessible cell sets by plain fixpoint iteration
    over singleton face steps."""
    forward = set(x.start)
    changed = True
    while changed:
        changed = False
        for c in x.cells.values():
            for pos in range(c.dim):
                if c.lower[pos] in forward and c.name not in forward:
                    forward.add(c.name)
                    changed = True
                if c.name in forward and c.upper[pos] not in forward:
                    forward.add(c.upper[pos])
                    changed = True
    backward = set(x.accept)
    changed = True
    while changed:
        changed = False
        for c in x.cells.values():
            for pos in range(c.dim):
                if c.upper[pos] in backward and c.name not in backward:
                    backward.add(c.name)
                    changed = True
                if c.name in backward and c.lower[pos] not in backward:
                    backward.add(c.lower[pos])
                    changed = True
    return frozenset(forward), frozenset(backward)


def oracle_accepting_paths(x: Hda, max_steps: int) -> list[Path]:
    """Every sparse accepting path with at most ``max_steps`` steps: extend
    every alternating path by every up and down step, one length at a time,
    with no cut; sorted by length, cells and positions."""

    @functools.cache
    def moves(name, kind):
        if kind == UP:
            return [
                (y.name, a)
                for y in x.cells.values()
                for a in _subsets(y.dim)
                if _face(x, y.name, False, a) == name
            ]
        return [(_face(x, name, True, a), a) for a in _subsets(x.cells[name].dim)]

    layer = [Path(cells=(s,), steps=()) for s in x.start]
    out = []
    for k in range(max_steps + 1):
        out += [p for p in layer if p.cells[-1] in x.accept]
        if k == max_steps:
            break
        layer = [
            Path(cells=p.cells + (nxt,), steps=p.steps + (PathStep(kind, a),))
            for p in layer
            for kind in (UP, DOWN)
            if not p.steps or p.steps[-1].kind != kind
            for nxt, a in moves(p.cells[-1], kind)
        ]
    return sorted(
        out, key=lambda p: (len(p.steps), p.cells, [sorted(s.positions) for s in p.steps])
    )


def oracle_ev_of_path(x: Hda, path: Path) -> Ipomset:
    """The event ipomset of a path: the identity on its first cell, glued
    with a starter on the cell an up step enters and a terminator on the
    cell a down step leaves, one step at a time, all from
    :func:`oracle_glue` and the oracle steps."""
    out = oracle_terminator(x.cells[path.cells[0]].ev, ())  # the identity
    for k, st in enumerate(path.steps):
        if st.kind == UP:
            out = oracle_glue(out, oracle_starter(x.cells[path.cells[k + 1]].ev, st.positions))
        else:
            out = oracle_glue(out, oracle_terminator(x.cells[path.cells[k]].ev, st.positions))
    return out


def oracle_determinism(x: Hda) -> DeterminismReport:
    """Start cells sharing a loset, and every pair of distinct essential
    cells of one loset whose lower faces at the same positions are one
    essential cell, found by trying all pairs over the singleton face
    lists and :func:`oracle_reachability`."""
    per_loset: dict = {}
    for name in x.start:
        per_loset.setdefault(x.cells[name].ev, []).append(name)
    start = tuple(sorted(ev for ev, names in per_loset.items() if len(names) > 1))
    fwd, bwd = oracle_reachability(x)
    ess = fwd & bwd
    clashes = []
    for y, z in itertools.combinations(sorted(ess), 2):
        for a in _subsets(x.cells[y].dim):
            base = _face(x, y, False, a)
            if (
                x.cells[y].ev == x.cells[z].ev
                and base in ess
                and base == _face(x, z, False, a)
            ):
                clashes.append((base, x.cells[y].ev, tuple(sorted(a)), y, z))
    branch = tuple((base, a, y, z) for base, _ev, a, y, z in sorted(clashes))
    return DeterminismReport(
        deterministic=not start and not branch, start_clashes=start, branch_clashes=branch
    )


def _face(x: Hda, name: str, upper: bool, positions) -> str:
    """The upper or lower face of a cell at a set of positions, applying the
    singleton faces from the highest position down."""
    for p in sorted(positions, reverse=True):
        c = x.cells[name]
        name = (c.upper if upper else c.lower)[p]
    return name


def _subsets(dim: int):
    """Every nonempty set of positions of a cell of dimension ``dim``."""
    for r in range(1, dim + 1):
        yield from (frozenset(a) for a in itertools.combinations(range(dim), r))
