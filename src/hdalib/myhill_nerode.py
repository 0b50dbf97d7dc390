"""The Myhill-Nerode automaton of a finite language.

Cells are strong-equivalence classes of prefixes, closed under all face
maps.  Upper faces terminate target events; lower faces either remove a
removable target or land in a subsidiary placeholder cell (one per loset,
named ``w_`` plus its labels, with a ``~k`` suffix when that name is taken).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .hda import Cell, Hda, compare_language, enumerate_language, essential_report, validate
from .ipomset import (
    Ipomset,
    Loset,
    identity,
    sorted_ipomsets,
    sparse_decomposition,
    terminate_targets,
)
from .language import (
    LanguageSet,
    check_down_closed,
    class_key,
    prefix_quotient,
    prefix_row,
    prefixes,
)

REGULAR = "regular"
SUBSIDIARY = "subsidiary"


@dataclass(frozen=True)
class MnCell:
    cell_id: str
    kind: str  # REGULAR or SUBSIDIARY
    loset: Loset
    representative: Optional[Ipomset]  # None for subsidiary cells
    essential: bool  # the representative's prefix quotient is nonempty


@dataclass
class MnAutomaton:
    hda: Hda
    cells: dict[str, MnCell]  # by cell id
    lang: LanguageSet
    _by_key: dict = field(default_factory=dict, repr=False, compare=False)

    def cell_of(self, p: Ipomset) -> str:
        """The id of the class of an ipomset arising in the construction.

        The first call fills ``_by_key`` from :func:`class_key` of each
        regular cell's representative, since :func:`build_mn` keys its
        classes another way."""
        if not self._by_key:
            self._by_key.update(
                (class_key(self.lang, c.representative), cid)
                for cid, c in self.cells.items()
                if c.kind == REGULAR
            )
        return self._by_key[class_key(self.lang, p)]


def _entry(lang: LanguageSet, memo: dict, key_ids: dict, p: Ipomset, tgt, lower, ids) -> None:
    """Add p to the memo of one :func:`build_mn` call, given its target
    events ``tgt`` in event order, its removals P−{e} at each target
    position (``None`` at a source) and their key ids.  Its entry is its
    key id, ``lower`` and ``tgt``."""
    key = (tuple([p.labels[e] for e in tgt]), prefix_quotient(lang, p), ids)
    memo[p] = (key_ids.setdefault(key, len(key_ids)), lower, tgt)


def _upper(lang: LanguageSet, memo: dict, key_ids: dict, p: Ipomset, pos: int) -> Ipomset:
    """The upper face P↓e of p at target position ``pos``, entered in the
    memo.  A new face takes its entry from p's with no removal built:
    (P↓e)−f = (P−f)↓e, and e sits at ``pos`` among the targets of P−f when
    f comes after it, at ``pos``−1 when f comes before.  Each call made
    here is on a removal of p, which has one target fewer, so the calls
    below this one go at most as deep as the face has target events.  It
    is a module function, not a closure in :func:`build_mn`: a closure
    that calls itself is a reference cycle, which would keep the memo
    alive after the call until the cycle collector ran."""
    _, lower, tgt = memo[p]
    face = terminate_targets(p, (tgt[pos],))
    if face not in memo:
        faces = tuple([
            None if q is None else _upper(lang, memo, key_ids, q, pos - (j < pos))
            for j, q in enumerate(lower)
            if j != pos
        ])
        ids = tuple([None if f is None else memo[f][0] for f in faces])
        _entry(lang, memo, key_ids, face, tgt[:pos] + tgt[pos + 1 :], faces, ids)
    return face


def build_mn(lang: LanguageSet) -> MnAutomaton:
    """Construct the face-closure of the prefix classes of ``lang``.

    Seeds one regular cell per strong-equivalence class of prefixes, then
    closes under singleton faces; every class appearing only through faces
    comes out non-essential, and blocked lower faces produce one
    subsidiary cell per loset.  Start cells are the classes of the
    identities on member source interfaces, accept cells the classes of
    members.  Regular cells are numbered as their classes are first met:
    prefixes in sorted order, then the faces of each regular cell in id
    order, the lower before the upper face at each target position.

    Raises :class:`NotDownClosed` unless ``lang.members`` is closed under
    one-step refinement.  That is checked only for a set that
    :func:`language` did not build or check, since :func:`language`
    already closed or checked its own.

    Classes are keyed by one-target removals.  The key of P is its target
    loset, P\\L, and, at each target position, the key id of P−{e} (``None``
    where e is a source).  Key ids are small ints, interned in this call.
    Keys are equal exactly when :func:`class_key` is, by induction on the
    number of removable targets: every nonempty set A of them holds some
    a, (P−{a})−(A−{a}) = P−A, and equal target signatures put a and the
    rest of A at the same positions in both ipomsets.  So each ipomset
    met costs one removal per removable target, not one per set of them.
    Its key, its removals P−{e} and its target events are kept for the
    whole call, where the lower faces read them again.  The prefixes are
    keyed in one pass, in order of their number of removable targets: a
    removal P−{e} has one fewer, so its key id exists before P is keyed.
    Only then are their cells made, in sorted order.

    Nothing is restricted here.  Every ipomset keyed by removal is a
    prefix, whose removals the division index already holds
    (:func:`prefix_row`): the prefixes themselves, the identities on
    member sources, the members, and the removals of prefixes.  A removal
    of a prefix is a prefix: when P*Q = M, (P−f)*Q' refines M, where Q' is
    Q with f taken out of its source.  An upper face P↓e takes its
    removals from P's, since (P↓e)−f = (P−f)↓e, and dropping a target from
    an ipomset's target keeps it canonical (:func:`terminate_targets`).
    """
    if not lang._closed:
        check_down_closed(lang.members)

    memo: dict = {}  # per ipomset met: its key id, removals and targets
    key_ids: dict[tuple, int] = {}
    cid_of: dict[int, str] = {}  # key id -> id of its regular cell
    cells: dict[str, MnCell] = {}
    faces: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    reps: list[tuple[str, Ipomset, tuple]] = []  # per regular cell, in id order

    def cell(p: Ipomset) -> str:
        entry = memo[p]
        cid = cid_of.get(entry[0])
        if cid is None:
            cid = cid_of[entry[0]] = f"q{len(cid_of)}"
            loset = tuple([p.labels[e] for e in entry[2]])
            cells[cid] = MnCell(cid, REGULAR, loset, p, bool(prefix_quotient(lang, p)))
            reps.append((cid, p, entry))
        return cid

    subs: dict[Loset, str] = {}

    def subsidiary(loset: Loset) -> str:
        """The subsidiary cell of a loset, made with the subsidiary cells
        of all its sub-losets, depth first, when it is new."""
        made = []
        todo = [loset]
        while todo:  # last in, first out: the faces are pushed in reverse
            u = todo.pop()
            if u in subs:
                continue
            # multi-letter labels can give two losets the same joined name;
            # the suffix is not "#k" because "#" starts a .hda comment
            base = cid = "w_" + "".join(u)
            k = 0
            while cid in cells:
                k += 1
                cid = f"{base}~{k}"
            subs[u] = cid
            cells[cid] = MnCell(cid, SUBSIDIARY, u, None, False)
            made.append((cid, u))
            todo += reversed([u[:i] + u[i + 1 :] for i in range(len(u))])
        # faces of subsidiary cells are subsidiary all the way down
        for cid, u in made:
            lower = tuple([subs[u[:i] + u[i + 1 :]] for i in range(len(u))])
            faces[cid] = (lower, lower)
        return subs[loset]

    ordered = sorted_ipomsets(prefixes(lang))
    for p in sorted(ordered, key=lambda p: len(p.target - p.source)):  # removals first
        tgt, lower = prefix_row(lang, p)
        ids = tuple([None if q is None else memo[q][0] for q in lower])
        _entry(lang, memo, key_ids, p, tgt, lower, ids)
    for p in ordered:
        cell(p)

    for cid, p, entry in reps:  # the worklist: it grows while it is read
        loset = cells[cid].loset
        lower = []
        upper = []
        for pos, removed in enumerate(entry[1]):
            if removed is None:
                lower.append(subsidiary(loset[:pos] + loset[pos + 1 :]))
            else:
                lower.append(cell(removed))
            upper.append(cell(_upper(lang, memo, key_ids, p, pos)))
        faces[cid] = (tuple(lower), tuple(upper))

    hda = Hda(
        cells={cid: Cell(cid, c.loset, *faces[cid]) for cid, c in cells.items()},
        start=frozenset([cell(identity(m.source_loset())) for m in lang.members]),
        accept=frozenset([cell(m) for m in lang.members]),
        name="mn",
    )
    return MnAutomaton(hda=hda, cells=cells, lang=lang)


@dataclass(frozen=True)
class MnReport:
    ok: bool
    language_ok: bool
    essential_ok: bool
    valid_ok: bool
    missing: tuple[Ipomset, ...]
    extra: tuple[Ipomset, ...]
    essential_diff: tuple[str, ...]
    problems: tuple[str, ...]


def verify_mn(lang: LanguageSet, mn: MnAutomaton) -> MnReport:
    """Round-trip checks: exact language equality (:func:`compare_language`
    on the members' :func:`sparse_decomposition`s), the essential set
    against nonempty quotients, and HDA validity.  Only when an accepting
    path reads no member are paths folded: ``extra`` is what
    :func:`enumerate_language` finds beyond the members within the longest
    member's sparse steps, or within the shortest such path's if longer."""
    members = list(lang.members)
    seqs = [sparse_decomposition(m) for m in members]
    unread, escape = compare_language(mn.hda, seqs)
    missing = tuple(sorted_ipomsets(members[i] for i in unread))
    extra = ()
    if escape is not None:
        bound = max([escape] + [len(seq.steps) for seq in seqs])
        extra = tuple(sorted_ipomsets(enumerate_language(mn.hda, bound) - lang.members))

    er = essential_report(mn.hda)
    expected = frozenset([cid for cid, c in mn.cells.items() if c.essential])
    diff = tuple(sorted(er.essential ^ expected))
    subsidiary_reached = tuple(
        sorted([c for c in er.accessible if mn.cells[c].kind == SUBSIDIARY])
    )

    rep = validate(mn.hda)
    language_ok = not missing and not extra
    essential_ok = not diff and not subsidiary_reached
    return MnReport(
        ok=language_ok and essential_ok and rep.ok,
        language_ok=language_ok,
        essential_ok=essential_ok,
        valid_ok=rep.ok,
        missing=missing,
        extra=extra,
        essential_diff=diff + subsidiary_reached,
        problems=rep.problems,
    )
