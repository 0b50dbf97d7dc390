"""Finite subsumption-closed languages and their quotient structure.

Quotients are computed once per language by enumerating all divisions of
all members; the resulting left/right index answers every prefix and
suffix query, which keeps the Myhill-Nerode construction cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import NotDownClosed
from .ipomset import (
    Ipomset,
    down_close,
    enumerate_divisions,
    fin,
    one_step_refinements,
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

    def __contains__(self, p: Ipomset) -> bool:
        return p in self.members

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _index(self) -> _DivisionIndex:
        """The division index, built on the first quotient query and kept
        for the life of this language only."""
        by_left: dict[Ipomset, set[Ipomset]] = {}
        by_right: dict[Ipomset, set[Ipomset]] = {}
        for m in self.members:
            for p, q in enumerate_divisions(m):
                by_left.setdefault(p, set()).add(q)
                by_right.setdefault(q, set()).add(p)
        return _DivisionIndex(
            by_left={k: frozenset(v) for k, v in by_left.items()},
            by_right={k: frozenset(v) for k, v in by_right.items()},
        )


def language(
    members: Iterable[Ipomset],
    closed: bool = False,
    alphabet: Optional[Iterable[str]] = None,
) -> LanguageSet:
    """Build a language from generators.

    With ``closed=False`` the downward subsumption closure is taken; with
    ``closed=True`` the input is validated to already be down-closed and
    :class:`NotDownClosed` is raised on a missing refinement.  Either way
    the result is marked closed, so :func:`build_mn` does not check it
    again.
    """
    gens = frozenset(members)
    if closed:
        mem = gens
        check_down_closed(mem)
    else:
        mem = down_close(gens)
    sigma = frozenset(
        itertools.chain.from_iterable(p.labels for p in mem)
        if alphabet is None
        else alphabet
    )
    lang = LanguageSet(members=mem, alphabet=sigma, generators=gens)
    object.__setattr__(lang, "_closed", True)
    return lang


def check_down_closed(members: frozenset[Ipomset]) -> None:
    """Raise :class:`NotDownClosed` naming the least missing refinement.

    A set closed under one-step refinement is down-closed, because
    :func:`refinements` is the fixpoint of one-step refinement; the full
    closure is computed only to name the witness.  :func:`language` calls
    this for ``closed=True``, and :func:`build_mn` for a
    :class:`LanguageSet` that :func:`language` did not build.
    """
    for m in members:
        if any(r not in members for r in one_step_refinements(m)):
            missing = down_close(members) - members
            raise NotDownClosed(f"missing refinement {sorted_ipomsets(missing)[0]!r}")


# ---------------------------------------------------------------------------
# the division index


@dataclass(frozen=True)
class _DivisionIndex:
    by_left: dict
    by_right: dict


def prefix_quotient(lang: LanguageSet, p: Ipomset) -> Quotient:
    """P\\L = {Q | P*Q ∈ L}."""
    return lang._index.by_left.get(p, EMPTY_QUOTIENT)


def suffix_quotient(lang: LanguageSet, p: Ipomset) -> Quotient:
    """L/P = {Q | Q*P ∈ L}."""
    return lang._index.by_right.get(p, EMPTY_QUOTIENT)


def prefixes(lang: LanguageSet) -> frozenset[Ipomset]:
    """All P with nonempty prefix quotient (left parts of divisions)."""
    return frozenset(lang._index.by_left)


# ---------------------------------------------------------------------------
# quotient families


@dataclass(frozen=True)
class QuotientFamily:
    """The distinct quotient values of a language, each with a witness.

    The empty quotient is always present; its representative is ``None``
    because no prefix produces it.
    """

    entries: tuple[tuple[Optional[Ipomset], Quotient], ...]

    def values(self) -> frozenset[Quotient]:
        return frozenset(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def suffix_quotient_family(lang: LanguageSet) -> QuotientFamily:
    """suff(L): all distinct values of P\\L."""
    chosen: dict[Quotient, Optional[Ipomset]] = {}
    for p in sorted_ipomsets(prefixes(lang)):
        chosen.setdefault(prefix_quotient(lang, p), p)
    chosen.setdefault(EMPTY_QUOTIENT, None)
    entries = tuple(
        (rep, val)
        for val, rep in sorted(
            chosen.items(),
            key=lambda kv: (kv[1] is None, kv[1].sort_key() if kv[1] else ()),
        )
    )
    return QuotientFamily(entries=entries)


# ---------------------------------------------------------------------------
# equivalences


def weak_equiv(p: Ipomset, q: Ipomset, lang: LanguageSet) -> bool:
    """Equal target signatures and equal prefix quotients."""
    return fin(p) == fin(q) and prefix_quotient(lang, p) == prefix_quotient(lang, q)


def _removal_family(lang: LanguageSet, p: Ipomset):
    """Quotients of P−A for every A of removable target-loset positions."""
    tgt = p.target_events()
    rpos = [i for i, e in enumerate(tgt) if e not in p.source]
    fam = {}
    for k in range(len(rpos) + 1):
        for combo in itertools.combinations(rpos, k):
            # p is canonical, so removing nothing needs no rebuild
            removed = remove_targets(p, {tgt[i] for i in combo}) if combo else p
            fam[frozenset(combo)] = prefix_quotient(lang, removed)
    return fam


def strong_equiv(p: Ipomset, q: Ipomset, lang: LanguageSet) -> bool:
    """Weak equivalence plus equal quotients after every target removal."""
    if fin(p) != fin(q):
        return False
    return _removal_family(lang, p) == _removal_family(lang, q)


def class_key(lang: LanguageSet, p: Ipomset):
    """Hashable key whose equality is strong equivalence.

    :func:`_removal_family` visits the removal sets in an order fixed by
    the removable target positions, which ``fin(p)`` fixes, so the
    quotients alone, in that order, say which set each belongs to."""
    return (fin(p), tuple(_removal_family(lang, p).values()))


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
    for p in prefixes(lang):
        key = (tuple(sorted(p.labels)), p.source_loset(), p.target_loset())
        buckets.setdefault(key, {}).setdefault(prefix_quotient(lang, p), []).append(p)
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
