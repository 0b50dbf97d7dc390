"""The Myhill-Nerode automaton of a finite language.

Cells are strong-equivalence classes of prefixes, closed under all face
maps.  Upper faces terminate target events; lower faces either remove a
removable target or land in a subsidiary placeholder cell (one per loset,
named ``w_`` plus its labels, with a ``~k`` suffix when that name is taken).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .hda import Cell, Hda, enumerate_language, essential_report, validate
from .ipomset import (
    Ipomset,
    Loset,
    clear_target_positions,
    identity,
    remove_target_positions,
    sorted_ipomsets,
    sparse_decomposition,
)
from .language import (
    LanguageSet,
    check_down_closed,
    class_key,
    prefix_quotient,
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
    essential: bool
    quotient: tuple[Ipomset, ...]  # empty for subsidiary cells


@dataclass
class MnAutomaton:
    hda: Hda
    cells: dict[str, MnCell]  # by cell id
    lang: LanguageSet
    _by_key: dict = field(default_factory=dict, repr=False)

    def cell_of(self, p: Ipomset) -> str:
        """The id of the class of an ipomset arising in the construction."""
        return self._by_key[class_key(self.lang, p)]

    def representative(self, cell_id: str) -> Optional[Ipomset]:
        return self.cells[cell_id].representative

    def essential_ids(self) -> frozenset[str]:
        return frozenset(c.cell_id for c in self.cells.values() if c.essential)


def build_mn(lang: LanguageSet) -> MnAutomaton:
    """Construct the face-closure of the prefix classes of ``lang``.

    Seeds one regular cell per strong-equivalence class of prefixes, then
    closes under singleton faces; every class appearing only through faces
    comes out non-essential, and blocked lower faces produce one
    subsidiary cell per loset.  Start cells are the classes of the
    identities on member source interfaces, accept cells the classes of
    members.

    Raises :class:`NotDownClosed` unless ``lang.members`` is closed under
    one-step refinement.  That is checked only for a set that
    :func:`language` did not build or check, since :func:`language`
    already closed or checked its own.  Each ipomset's class key is
    computed once per call, since faces, start cells and accept cells meet
    the same ipomsets again.
    """
    if not lang._closed:
        check_down_closed(lang.members)

    keys: dict[Ipomset, tuple] = {}

    def key_of(p: Ipomset) -> tuple:
        if p not in keys:
            keys[p] = class_key(lang, p)
        return keys[p]

    by_key: dict = {}
    records: dict[str, dict] = {}
    order: list[str] = []
    todo: list[str] = []

    def intern(p: Ipomset) -> str:
        key = key_of(p)
        if key in by_key:
            return by_key[key]
        cid = f"q{len(by_key)}"
        by_key[key] = cid
        records[cid] = {
            "kind": REGULAR,
            "loset": p.target_loset(),
            "rep": p,
            "quotient": tuple(sorted_ipomsets(prefix_quotient(lang, p))),
        }
        order.append(cid)
        todo.append(cid)
        return cid

    subs: dict[Loset, str] = {}

    def subsidiary(loset: Loset) -> str:
        if loset not in subs:
            # multi-letter labels can give two losets the same joined name;
            # the suffix is not "#k" because "#" starts a .hda comment
            base = cid = "w_" + "".join(loset)
            k = 0
            while cid in records:
                k += 1
                cid = f"{base}~{k}"
            subs[loset] = cid
            records[cid] = {
                "kind": SUBSIDIARY,
                "loset": loset,
                "rep": None,
                "quotient": (),
            }
            order.append(cid)
            # faces of subsidiary cells are subsidiary all the way down
            lower = tuple(
                subsidiary(loset[:i] + loset[i + 1 :]) for i in range(len(loset))
            )
            records[cid]["lower"] = lower
            records[cid]["upper"] = lower
        return subs[loset]

    for p in sorted_ipomsets(prefixes(lang)):
        intern(p)

    while todo:
        cid = todo.pop(0)
        rec = records[cid]
        p = rec["rep"]
        dim = len(rec["loset"])
        lower = []
        upper = []
        src_positions = {
            i for i, e in enumerate(p.target_events()) if e in p.source
        }
        for pos in range(dim):
            if pos in src_positions:
                lower.append(subsidiary(rec["loset"][:pos] + rec["loset"][pos + 1 :]))
            else:
                lower.append(intern(remove_target_positions(p, [pos])))
            upper.append(intern(clear_target_positions(p, [pos])))
        rec["lower"] = tuple(lower)
        rec["upper"] = tuple(upper)

    start_ids = {by_key[key_of(identity(m.source_loset()))] for m in lang.members}
    accept_ids = {by_key[key_of(m)] for m in lang.members}

    cells = {
        cid: Cell(
            name=cid,
            ev=records[cid]["loset"],
            lower=records[cid].get("lower", ()),
            upper=records[cid].get("upper", ()),
        )
        for cid in order
    }
    hda = Hda(
        cells=cells,
        start=frozenset(start_ids),
        accept=frozenset(accept_ids),
        name="mn",
    )
    mn_cells = {
        cid: MnCell(
            cell_id=cid,
            kind=records[cid]["kind"],
            loset=records[cid]["loset"],
            representative=records[cid]["rep"],
            essential=bool(records[cid]["quotient"]),
            quotient=records[cid]["quotient"],
        )
        for cid in order
    }
    return MnAutomaton(hda=hda, cells=mn_cells, lang=lang, _by_key=by_key)


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
    """Round-trip checks: language equality at a sufficient bound, the
    essential set against nonempty quotients, and HDA validity."""
    bound = max(
        (len(sparse_decomposition(m).steps) for m in lang.members), default=0
    )
    found = enumerate_language(mn.hda, bound)
    missing = tuple(sorted_ipomsets(lang.members - found))
    extra = tuple(sorted_ipomsets(found - lang.members))

    er = essential_report(mn.hda)
    expected = mn.essential_ids()
    diff = tuple(sorted(er.essential ^ expected))
    subsidiary_reached = tuple(
        sorted(c for c in er.accessible if mn.cells[c].kind == SUBSIDIARY)
    )

    rep = validate(mn.hda)
    return MnReport(
        ok=not missing
        and not extra
        and not diff
        and not subsidiary_reached
        and rep.ok,
        language_ok=not missing and not extra,
        essential_ok=not diff and not subsidiary_reached,
        valid_ok=rep.ok,
        missing=missing,
        extra=extra,
        essential_diff=diff + subsidiary_reached,
        problems=rep.problems,
    )
