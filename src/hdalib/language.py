"""Finite subsumption-closed languages and their quotient structure.

Prefix quotients are computed once per language by enumerating all
divisions of all members into one division table: per prefix P, its row
and its right parts, which make its quotient P\\L.  The row holds P's
target events, in event order, and its one-target removals P−{e}, which
the Myhill-Nerode construction keys its classes by.  The resulting index
answers every prefix query, which keeps that construction cheap;
:func:`prefix_row` reads the row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import HdalibError, NotDownClosed
from .ipomset import (
    Ipomset,
    down_close,
    enumerate_divisions,
    fin,
    remove_targets,
    sorted_ipomsets,
    subsumes,
)

Quotient = frozenset[Ipomset]
EMPTY_QUOTIENT: Quotient = frozenset()


@dataclass(frozen=True)
class LanguageSet:
    """A finite language: a down-closed set of canonical ipomsets.

    :func:`language` closes or checks its members and sets ``_closed``.
    :func:`build_mn` checks only a set without that mark, such as one built
    directly or through ``dataclasses.replace``.  The mark is not a
    constructor argument and takes no part in equality.
    """

    members: frozenset[Ipomset]
    alphabet: frozenset[str]
    generators: frozenset[Ipomset] = field(default=frozenset(), compare=False)
    _closed: bool = field(default=False, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _index(self) -> tuple[dict[Ipomset, Quotient], dict[Ipomset, tuple]]:
        """Every prefix with its quotient, and every prefix with its target
        events in event order and its one-target removals, from the division
        table that :func:`enumerate_divisions` fills from the members; built
        on the first prefix query and kept for the life of this language
        only.  One pass over the table freezes each prefix's right parts,
        interned so that prefixes with equal quotients share one set and
        comparing two of them is an identity check, and maps each removal, a
        prefix (see :func:`build_mn`), to the object that keys its quotient."""
        table: dict[Ipomset, tuple] = {}
        for m in self.members:
            enumerate_divisions(m, table)
        keys = {p: p for p in table}
        seen: dict[Quotient, Quotient] = {}
        quotients, rows = {}, {}
        for p, (tgt, rs, qs) in table.items():
            q = frozenset(qs)
            quotients[p] = seen.setdefault(q, q)
            rows[p] = (tgt, tuple(map(keys.get, rs, rs)))
        return quotients, rows


def language(
    members: Iterable[Ipomset],
    closed: bool = False,
    alphabet: Optional[Iterable[str]] = None,
) -> LanguageSet:
    """Build a language from generators.

    With ``closed=False`` the downward subsumption closure is taken; with
    ``closed=True`` the input is validated to already be down-closed and
    :class:`NotDownClosed` is raised on a missing refinement.  Both walk
    the schedules of the maximal inputs only.  Either way the result is
    marked closed, so :func:`build_mn` does not check it again.

    The alphabet defaults to the member labels.  A given alphabet must
    hold them all, or :class:`HdalibError` is raised.
    """
    gens = frozenset(members)
    labels = frozenset(itertools.chain.from_iterable(p.labels for p in gens))
    sigma = labels if alphabet is None else frozenset(alphabet)
    missing = " ".join(sorted(labels - sigma))
    if missing:
        raise HdalibError(f"alphabet misses member labels {missing}")
    if closed:
        check_down_closed(gens)
    mem = gens if closed else down_close(gens)
    lang = LanguageSet(members=mem, alphabet=sigma, generators=gens)
    object.__setattr__(lang, "_closed", True)
    return lang


def check_down_closed(members: frozenset[Ipomset]) -> None:
    """Raise :class:`NotDownClosed` naming the least missing refinement.

    On a closed set, :func:`down_close` walks only the maximal members.
    :func:`language` calls this for ``closed=True``, and :func:`build_mn`
    for a :class:`LanguageSet` that :func:`language` did not build.
    """
    missing = down_close(members) - members
    if missing:
        raise NotDownClosed(f"missing refinement {sorted_ipomsets(missing)[0]!r}")


# ---------------------------------------------------------------------------
# quotients


def prefix_quotient(lang: LanguageSet, p: Ipomset) -> Quotient:
    """P\\L = {Q | P*Q ∈ L}."""
    return lang._index[0].get(p, EMPTY_QUOTIENT)


def prefix_row(
    lang: LanguageSet, p: Ipomset
) -> tuple[tuple[int, ...], tuple[Optional[Ipomset], ...]]:
    """The index row of a prefix P: ``p.target_events()``, read with no
    sort, and the one-target removals of P, as :func:`remove_targets`
    gives them: P−{e} for each of those target events e, in that order,
    and ``None`` where e is a source.  Raises :class:`HdalibError` when P
    is no prefix of ``lang``."""
    out = lang._index[1].get(p)
    if out is None:
        raise HdalibError(f"{p!r} is not a prefix")
    return out


def suffix_quotient(lang: LanguageSet, p: Ipomset) -> Quotient:
    """L/P = {Q | Q*P ∈ L}, from the divisions of the members.  Only
    ``lang quotient --suffix`` asks for it, so no index keeps it."""
    return frozenset(
        [q for m in lang.members for q, right in enumerate_divisions(m) if right == p]
    )


def prefixes(lang: LanguageSet) -> frozenset[Ipomset]:
    """All P with nonempty prefix quotient (left parts of divisions)."""
    return frozenset(lang._index[0])


# ---------------------------------------------------------------------------
# quotient families


def suffix_quotient_family(
    lang: LanguageSet,
) -> tuple[tuple[Optional[Ipomset], Quotient], ...]:
    """suff(L): all distinct values of P\\L, as (representative, quotient)
    pairs, each value with the least prefix that produces it.

    Prefixes are visited in sorted order, so the pairs come in the order of
    their representatives.  The empty quotient comes last, with ``None``:
    no prefix produces it.
    """
    chosen: dict[Quotient, Optional[Ipomset]] = {}
    for p in sorted_ipomsets(prefixes(lang)):
        chosen.setdefault(prefix_quotient(lang, p), p)
    chosen.setdefault(EMPTY_QUOTIENT, None)
    return tuple([(rep, val) for val, rep in chosen.items()])


# ---------------------------------------------------------------------------
# equivalences


def weak_equiv(p: Ipomset, q: Ipomset, lang: LanguageSet) -> bool:
    """Equal target signatures and equal prefix quotients."""
    return fin(p) == fin(q) and prefix_quotient(lang, p) == prefix_quotient(lang, q)


def strong_equiv(p: Ipomset, q: Ipomset, lang: LanguageSet) -> bool:
    """Weak equivalence plus equal quotients after every target removal:
    equal class keys (:func:`class_key` gives the argument)."""
    return class_key(lang, p) == class_key(lang, q)


def class_key(lang: LanguageSet, p: Ipomset):
    """Hashable key whose equality is strong equivalence: ``fin(p)``, then
    the quotients of P−A for the sets A of removable target-loset positions,
    by size and then lexicographically.  Those positions are the active
    ones of ``fin(p)``, so ipomsets with equal signatures visit the same
    sets in the same order, and the quotients alone, in that order, say
    which set each belongs to.

    This is the reference definition: :func:`strong_equiv` and
    ``MnAutomaton.cell_of`` use it, while :func:`build_mn` keys its classes
    by one-target removals and makes no call to it."""
    sig = fin(p)
    tgt = p.target_events()
    quotients = []
    for k in range(len(sig.active) + 1):
        for combo in itertools.combinations(sorted(sig.active), k):
            # p is canonical, so removing nothing needs no rebuild
            removed = remove_targets(p, {tgt[i] for i in combo}) if combo else p
            quotients.append(prefix_quotient(lang, removed))
    return (sig, tuple(quotients))


# ---------------------------------------------------------------------------
# swap invariance


@dataclass(frozen=True)
class SwapInvarianceResult:
    invariant: bool
    violations: tuple[tuple[Ipomset, Ipomset], ...]  # (refined, subsuming)

    def __bool__(self) -> bool:
        return self.invariant


def is_swap_invariant(lang: LanguageSet) -> SwapInvarianceResult:
    """Check that P ⊑ Q forces P\\L = Q\\L whenever Q\\L is nonempty.

    Quantifying over prefixes only is complete: quotient monotonicity
    forces any refined P of a prefix Q to be a prefix itself, and pairs
    with empty right quotient satisfy the condition trivially.

    :func:`subsumes` runs only on pairs that pass two exact filters:

    - *Buckets.* A witness of P ⊑ Q keeps labels, and it maps the k-th
      source (target) of P to the k-th source (target) of Q, because
      interface events are pairwise concurrent and subsumption keeps the
      event order of concurrent pairs.  So P ⊑ Q needs equal label
      multisets, source losets and target losets, and pairs from different
      buckets of that key are never compared (:func:`subsumes_witness`
      would reject each of them).
    - *Quotients first.* A pair is a violation only if its quotients
      differ, so within a bucket the prefixes are grouped by quotient and
      only pairs from different groups reach :func:`subsumes`.  Both
      tests are pure, so taking the cheap one first changes no verdict.

    The violations are sorted, so their order does not depend on the
    order in which the buckets are visited.
    """
    buckets: dict[tuple, dict[Quotient, list[Ipomset]]] = {}
    quotients, rows = lang._index
    for p, (tgt, _) in rows.items():
        key = (tuple(sorted(p.labels)), p.source_loset(), tuple([p.labels[e] for e in tgt]))
        buckets.setdefault(key, {}).setdefault(quotients[p], []).append(p)
    bad = [
        (p, q)
        for groups in buckets.values()
        for ps, qs in itertools.permutations(groups.values(), 2)
        for p in ps
        for q in qs
        if subsumes(p, q)
    ]
    bad.sort(key=lambda t: (t[0].sort_key(), t[1].sort_key()))
    return SwapInvarianceResult(invariant=not bad, violations=tuple(bad))
