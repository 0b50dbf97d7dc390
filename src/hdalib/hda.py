"""Finite higher-dimensional automata: cells, face maps, paths, languages.

Cells carry a loset of active events; only singleton face maps are stored,
composites are derived (the precubical identities make that lossless).
Searches treat an upstep into a cell y at positions A as the inverse of
the composite lower face δ⁰_A of y, and all of them read one step index
per automaton, built once its faces type-check.  Reachability, the
essential cells and membership are one breadth-first search (:func:`_bfs`),
over cells or over states (step, cell); path enumeration walks depth first
on a stack of its own (:func:`_walk`), so no search here recurses.  A
path step reads one starter or terminator (:func:`_reading`), so a path
reads a :class:`StepSequence`, and its event ipomset is the fold of what
it reads.  :func:`enumerate_language` folds each accepting path, or, given
a table from step sequences to ipomsets, looks up what the path reads and
folds only the paths it does not find there.

Each automaton keeps what these derive from it alone, computed on first
use: its face-typing problems, its step index, the search back from its
accept cells and its :class:`EssentialReport`.  So validation, the
determinism check, the essential cells and path enumeration on one
automaton type its faces once and search back from its accept cells once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Optional, TypeVar

from .errors import FaceTypingError
from .ipomset import (
    Ipomset,
    Loset,
    STARTER,
    TERMINATOR,
    StarterTerminator,
    StepSequence,
    apply_step,
    identity,
    sparse_decomposition,
)

LOWER = 0
UPPER = 1

UP = "up"
DOWN = "down"

N = TypeVar("N", bound=Hashable)  # a node of a search


@dataclass(frozen=True)
class Cell:
    name: str
    ev: Loset
    lower: tuple[str, ...] = ()  # singleton faces, one per loset position
    upper: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.ev)


@dataclass(frozen=True)
class Hda:
    """A finite HDA with start and accept cells (any dimension)."""

    cells: dict[str, Cell]
    start: frozenset[str]
    accept: frozenset[str]
    name: str = "hda"

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """The face-typing problems (:func:`_face_typing`), in order."""
        return tuple(_face_typing(self))

    @cached_property
    def _index(self) -> _StepIndex:
        """Every up and down step over a nonempty set of positions, built on
        the first search and kept for the life of this automaton only.  The
        faces are type-checked first (:class:`FaceTypingError`), so no
        composite face meets a missing or mistyped cell."""
        if self._problems:
            raise FaceTypingError(self._problems[0])
        up: dict[str, list[tuple[str, frozenset[int]]]] = {c: [] for c in self.cells}
        down: dict[str, list[tuple[str, frozenset[int]]]] = {c: [] for c in self.cells}
        back: dict[str, list[str]] = {c: [] for c in self.cells}
        for c in self.cells.values():
            for r in range(1, c.dim + 1):
                for combo in itertools.combinations(range(c.dim), r):
                    lo = hi = c.name
                    for p in reversed(combo):  # as composite_face: highest first
                        lo, hi = self.cells[lo].lower[p], self.cells[hi].upper[p]
                    a = frozenset(combo)
                    up[lo].append((c.name, a))
                    down[c.name].append((hi, a))
                    back[c.name].append(lo)
                    back[hi].append(c.name)
        return _StepIndex(up=up, down=down, back=back)

    @cached_property
    def _to_accept(self) -> dict[str, int]:
        """The breadth-first search back from the accept cells: every cell
        with a route to one, in the order found, mapped to the fewest up or
        down steps to one."""
        dist: dict[str, int] = {}
        for cell, prev in _bfs(self.accept, self._index.back.__getitem__).items():
            dist[cell] = 0 if prev is None else dist[prev] + 1  # prev came first
        return dist

    @cached_property
    def _essential(self) -> EssentialReport:
        """Forward search from the start cells, and :attr:`_to_accept`."""
        idx = self._index
        acc = _bfs(self.start, lambda c: [y for y, _ in idx.up[c] + idx.down[c]])
        coacc = self._to_accept
        return EssentialReport(
            accessible=frozenset(acc),
            coaccessible=frozenset(coacc),
            essential=frozenset(acc.keys() & coacc.keys()),
        )


@dataclass(frozen=True)
class _StepIndex:
    up: dict[str, list[tuple[str, frozenset[int]]]]  # x -> (y, A) with δ⁰_A(y) = x
    down: dict[str, list[tuple[str, frozenset[int]]]]  # x -> (δ¹_A(x), A)
    back: dict[str, list[str]]  # y -> every x one up or down step before y


def build_hda(
    cells: Iterable[Cell],
    start: Iterable[str],
    accept: Iterable[str],
    name: str = "hda",
) -> Hda:
    table = {c.name: c for c in cells}
    return Hda(cells=table, start=frozenset(start), accept=frozenset(accept), name=name)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate(x: Hda) -> ValidationReport:
    """Check face typing and the precubical identities, and collect every
    problem found.  Face-typing problems come first; the identities are
    checked only when the faces type-check."""
    if x._problems:
        return ValidationReport(ok=False, problems=x._problems)
    problems: list[str] = []
    # precubical identities on singleton pairs: removing position j then i
    # (i < j) must equal removing i then j-1
    for c in x.cells.values():
        for i, j in itertools.combinations(range(c.dim), 2):
            for nu, mu in itertools.product((LOWER, UPPER), repeat=2):
                via_j = _face(x, _face(x, c.name, mu, j), nu, i)
                via_i = _face(x, _face(x, c.name, nu, i), mu, j - 1)
                if via_j != via_i:
                    problems.append(
                        f"cell {c.name}: d{nu}({i + 1}) and d{mu}({j + 1}) "
                        f"do not commute ({via_j} vs {via_i})"
                    )
    return ValidationReport(ok=not problems, problems=tuple(problems))


def _face_typing(x: Hda) -> Iterator[str]:
    """Face-typing problems: a face list that misses a position, a face that
    names no cell or a cell of the wrong loset, an undefined start or
    accept cell."""
    for c in x.cells.values():
        if c.dim and (len(c.lower) != c.dim or len(c.upper) != c.dim):
            yield f"cell {c.name}: face lists must cover every position"
            continue
        for pos in range(c.dim):
            want = c.ev[:pos] + c.ev[pos + 1 :]
            for kind, tgt in ((LOWER, c.lower[pos]), (UPPER, c.upper[pos])):
                face = x.cells.get(tgt)
                if face is None:
                    yield f"cell {c.name}: face {tgt!r} undefined"
                elif face.ev != want:
                    yield f"cell {c.name}: d{kind}({pos + 1}) has loset {face.ev}, expected {want}"
    for name in sorted(n for n in x.start | x.accept if n not in x.cells):
        yield f"start/accept cell {name!r} undefined"


def _face(x: Hda, name: str, kind: int, pos: int) -> str:
    c = x.cells[name]
    return c.lower[pos] if kind == LOWER else c.upper[pos]


def composite_face(x: Hda, name: str, kind: int, positions: Iterable[int]) -> str:
    """δ^kind_A as a composition of singleton faces.

    Singletons are applied from the highest position down so the remaining
    indices never shift under the removals.
    """
    c = x.cells[name]
    pos = sorted(set(positions), reverse=True)
    if pos and (pos[0] >= c.dim or pos[-1] < 0):
        raise FaceTypingError(f"cell {name}: face positions {pos} out of range")
    for p in pos:
        name = _face(x, name, kind, p)
    return name


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class PathStep:
    kind: str  # UP or DOWN
    positions: frozenset[int]


@dataclass(frozen=True)
class Path:
    """Alternating cell/step sequence (x0, φ1, x1, ..., φn, xn)."""

    cells: tuple[str, ...]
    steps: tuple[PathStep, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.steps) + 1:
            raise ValueError("a path needs one more cell than steps")

    def __repr__(self) -> str:
        out = [self.cells[0]]
        for st, cell in zip(self.steps, self.cells[1:]):
            arrow = "↗" if st.kind == UP else "↘"
            out.append(f"{arrow}{{{','.join(map(str, sorted(st.positions)))}}} {cell}")
        return "(" + " ".join(out) + ")"


def check_path(x: Hda, path: Path) -> None:
    """Raise if a step is not backed by the face maps."""
    for k, st in enumerate(path.steps):
        a, b = path.cells[k], path.cells[k + 1]
        if st.kind == UP:
            if composite_face(x, b, LOWER, st.positions) != a:
                raise FaceTypingError(f"upstep {k}: {a} is not δ⁰ of {b}")
        else:
            if composite_face(x, a, UPPER, st.positions) != b:
                raise FaceTypingError(f"downstep {k}: {b} is not δ¹ of {a}")


def ev_of_path(x: Hda, path: Path) -> Ipomset:
    """The event ipomset of a path: the identity on its first cell, folded
    with the starter or terminator each step reads (:func:`_ev_step`)."""
    out = identity(x.cells[path.cells[0]].ev)
    for k, st in enumerate(path.steps):
        out = _ev_step(x, out, path.cells[k], path.cells[k + 1], st)
    return out


def _ev_step(x: Hda, out: Ipomset, before: str, after: str, st: PathStep) -> Ipomset:
    """The event ipomset ``out`` of a path followed by the step ``st`` from
    ``before`` to ``after``: ``out`` glued with what the step reads, by
    :func:`apply_step`."""
    return apply_step(out, *_reading(x, before, after, st))


def _reading(x: Hda, before: str, after: str, st: PathStep) -> StarterTerminator:
    """The step that the path step ``st`` from ``before`` to ``after``
    reads: the starter on ``after``'s loset for an up step, the terminator
    on ``before``'s for a down step, at the positions of ``st``."""
    if st.kind == UP:
        return StarterTerminator(STARTER, x.cells[after].ev, st.positions)
    return StarterTerminator(TERMINATOR, x.cells[before].ev, st.positions)


# ---------------------------------------------------------------------------
# reachability, essential cells


@dataclass(frozen=True)
class EssentialReport:
    accessible: frozenset[str]
    coaccessible: frozenset[str]
    essential: frozenset[str]


def essential_report(x: Hda) -> EssentialReport:
    """Forward search from start cells, backward from accept cells; made
    once per automaton and kept with it."""
    return x._essential


def _bfs(roots: Iterable[N], nexts: Callable[[N], Iterable[N]]) -> dict[N, Optional[N]]:
    """Every node reached from the roots, breadth first, in the order found,
    mapped to the node it was first found from (``None`` for a root)."""
    found = dict.fromkeys(roots)
    frontier = list(found)
    for node in frontier:  # grows while it is read: a FIFO queue
        for n in nexts(node):
            if n not in found:
                found[n] = node
                frontier.append(n)
    return found


# ---------------------------------------------------------------------------
# membership and language enumeration


def member(x: Hda, p: Ipomset) -> Optional[Path]:
    """An accepting path with event ipomset p, if any.

    Searches states (k, cell), a cell reached by the first k steps of the
    sparse decomposition of p, breadth first over the step index; the
    witness ends at the first state (all steps, accept cell) found.
    """
    seq = sparse_decomposition(p)
    steps = seq.steps
    idx = x._index

    def nexts(state: tuple[int, str]) -> list[tuple[int, str]]:
        k, cell = state
        if k == len(steps):
            return []
        st = steps[k]
        if st.kind == STARTER:
            return [
                (k + 1, big)
                for big, pos in idx.up[cell]
                if pos == st.active and x.cells[big].ev == st.loset
            ]
        if x.cells[cell].ev != st.loset:
            return []
        return [(k + 1, small) for small, pos in idx.down[cell] if pos == st.active]

    roots = [(0, c) for c in sorted(x.start) if x.cells[c].ev == seq.initial_loset]
    found = _bfs(roots, nexts)
    goal = next((s for s in found if s[0] == len(steps) and s[1] in x.accept), None)
    if goal is None:
        return None
    cells, state = [], goal
    while state is not None:  # back along the links to a root
        cells.append(state[1])
        state = found[state]
    return Path(
        cells=tuple(reversed(cells)),
        steps=tuple(PathStep(UP if st.kind == STARTER else DOWN, st.active) for st in steps),
    )


def accepting_paths(x: Hda, max_steps: int) -> list[Path]:
    """All sparse accepting paths with at most ``max_steps`` steps, sorted
    by length, cells and positions."""
    out: list[Path] = []
    _walk(x, max_steps, lambda cells, steps, _ev: out.append(Path(cells, steps)))
    out.sort(key=lambda p: (len(p.steps), p.cells, [sorted(s.positions) for s in p.steps]))
    return out


def enumerate_language(
    x: Hda, max_steps: int, known: Optional[dict[StepSequence, Ipomset]] = None
) -> frozenset[Ipomset]:
    """Event ipomsets of all sparse accepting paths within the bound.

    With ``known``, a path takes the value that ``known`` maps its reading
    to, the :class:`StepSequence` of its first cell's loset and the steps
    it reads (:func:`_reading`), and is folded only when its reading is
    not a key there.  Its fold (:func:`ev_of_path`) is the reading's
    :meth:`StepSequence.compose`, so when ``known`` maps the
    :func:`sparse_decomposition` of each of its ipomsets to that ipomset,
    a path found there folds to the value found: the result is exact
    whatever ``known`` holds."""
    out: set[Ipomset] = set()

    def visit(cells: tuple[str, ...], steps: tuple[PathStep, ...], ev: Callable[[], Ipomset]):
        found = None
        if known is not None:
            reading = tuple(_reading(x, cells[k], cells[k + 1], st) for k, st in enumerate(steps))
            found = known.get(StepSequence(x.cells[cells[0]].ev, reading))
        out.add(ev() if found is None else found)

    _walk(x, max_steps, visit)
    return frozenset(out)


def _walk(
    x: Hda,
    max_steps: int,
    visit: Callable[[tuple[str, ...], tuple[PathStep, ...], Callable[[], Ipomset]], None],
) -> None:
    """Call ``visit(cells, steps, ev)`` on every sparse accepting path with
    at most ``max_steps`` steps, depth first from the start cells.

    The search enters a cell only when an accept cell is still within the
    remaining steps, judged by the fewest steps to one in either direction;
    alternation only lengthens paths, so the cut drops no path.

    ``ev()``, called during the visit, returns the path's event ipomset:
    the fold of :func:`ev_of_path`, continued from the ipomsets of the
    current path's prefixes, which are kept one per depth.  A prefix shared
    by several accepting paths is folded once, and a prefix of none is not
    folded at all.
    """
    idx = x._index
    dist = x._to_accept
    evs: list[Ipomset] = []  # evs[k]: event ipomset of the first k steps

    def ev(cells: tuple[str, ...], steps: tuple[PathStep, ...]) -> Ipomset:
        for k in range(len(evs), len(steps) + 1):
            if not k:
                evs.append(identity(x.cells[cells[0]].ev))
            else:
                evs.append(_ev_step(x, evs[-1], cells[k - 1], cells[k], steps[k - 1]))
        return evs[-1]

    def in_reach(cell: str, steps: int) -> bool:
        return cell in dist and steps + dist[cell] <= max_steps

    stack = [((s,), ()) for s in sorted(x.start, reverse=True) if in_reach(s, 0)]
    while stack:  # last in, first out: children are pushed in reverse
        cells, steps = stack.pop()
        del evs[len(steps) :]  # those from here on belong to an earlier path
        cur = cells[-1]
        if cur in x.accept:
            visit(cells, steps, lambda: ev(cells, steps))
        if len(steps) == max_steps:
            continue
        n = len(steps) + 1
        last = steps[-1].kind if steps else None
        children = []
        if last != UP:
            children += [
                (cells + (big,), steps + (PathStep(UP, pos),))
                for big, pos in idx.up[cur]
                if in_reach(big, n)
            ]
        if last != DOWN:
            children += [
                (cells + (tgt,), steps + (PathStep(DOWN, pos),))
                for tgt, pos in idx.down[cur]
                if in_reach(tgt, n)
            ]
        stack += reversed(children)


# ---------------------------------------------------------------------------
# determinism


@dataclass(frozen=True)
class DeterminismReport:
    deterministic: bool
    start_clashes: tuple[Loset, ...]
    branch_clashes: tuple[tuple[str, tuple[int, ...], str, str], ...]
    # (shared lower face, positions, cell, cell)

    def __bool__(self) -> bool:
        return self.deterministic


def is_deterministic(x: Hda) -> DeterminismReport:
    """At most one start cell per loset; no essential cell reachable by the
    same upstep from two distinct essential cells."""
    start_clashes = []
    per_loset: dict[Loset, list[str]] = {}
    for name in x.start:
        per_loset.setdefault(x.cells[name].ev, []).append(name)
    for loset, names in sorted(per_loset.items()):
        if len(names) > 1:
            start_clashes.append(loset)
    ess = essential_report(x).essential
    branch = []
    for base in sorted(ess):
        groups: dict[tuple[Loset, tuple[int, ...]], list[str]] = {}
        for big, pos in x._index.up[base]:
            if big in ess:
                groups.setdefault((x.cells[big].ev, tuple(sorted(pos))), []).append(big)
        for (_loset, combo), names in sorted(groups.items()):
            branch += [(base, combo, a, b) for a, b in itertools.combinations(sorted(names), 2)]
    return DeterminismReport(
        deterministic=not start_clashes and not branch,
        start_clashes=tuple(start_clashes),
        branch_clashes=tuple(branch),
    )
