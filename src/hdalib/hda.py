"""Finite higher-dimensional automata: cells, face maps, paths, languages.

Cells carry a loset of active events; only singleton face maps are stored,
composites are derived (the precubical identities make that lossless).
Searches treat an upstep into a cell y at positions A as the inverse of
the composite lower face δ⁰_A of y, and all of them read one step index
per automaton, built once its faces type-check.  A path step reads one
starter or terminator (:func:`_reading`), so a path reads a
:class:`StepSequence`, and its event ipomset is the fold of what it reads.

Every search is one breadth-first search (:func:`_bfs`); none recurses.
Membership and the comparison with a finite language walk the sparse
paths against the trie of the decompositions asked about, unbounded
(:func:`_trie_walk`); the paths and the language within a bound walk
them under a distance cut, and paths that read alike are folded once.

Each automaton keeps what these derive from it alone, computed on first
use: its face-typing problems, its step index, the search back from its
accept cells and its :class:`EssentialReport`.  So validation, the
determinism check, the essential cells and the searches on one automaton
type its faces once and search back from its accept cells once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

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
        up: dict[str, list[tuple[str, PathStep]]] = {c: [] for c in self.cells}
        down: dict[str, list[tuple[str, PathStep]]] = {c: [] for c in self.cells}
        back: dict[str, list[str]] = {c: [] for c in self.cells}
        steps: dict[int, list] = {}  # per dimension: the steps over each set of positions
        for c in self.cells.values():
            if c.dim not in steps:  # each set of positions, highest first as in composite_face
                n = range(c.dim)
                sets = [frozenset(k) for r in n for k in itertools.combinations(n, r + 1)]
                steps[c.dim] = [(sorted(a)[::-1], PathStep(UP, a), PathStep(DOWN, a)) for a in sets]
            for positions, to_up, to_down in steps[c.dim]:
                lo = hi = c.name
                for p in positions:
                    lo, hi = self.cells[lo].lower[p], self.cells[hi].upper[p]
                up[lo].append((c.name, to_up))
                down[c.name].append((hi, to_down))
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
    up: dict[str, list[tuple[str, PathStep]]]  # x -> (y, ↗A) with δ⁰_A(y) = x
    down: dict[str, list[tuple[str, PathStep]]]  # x -> (δ¹_A(x), ↘A)
    back: dict[str, list[str]]  # y -> every x one up or down step before y

    def after(self, cell: str, kind: Optional[str]) -> list[tuple[str, PathStep]]:
        """The steps from ``cell`` that a sparse path takes after one of ``kind``."""
        return (self.up[cell] if kind != UP else []) + (self.down[cell] if kind != DOWN else [])


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
    for name in sorted([n for n in x.start | x.accept if n not in x.cells]):
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


class PathStep(NamedTuple):
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
    """The event ipomset of a path: the :class:`StepSequence` it reads
    (:func:`_reading`), composed."""
    c = path.cells
    reads = (_reading(x, a, b, st) for a, b, st in zip(c, c[1:], path.steps))
    return StepSequence(x.cells[c[0]].ev, tuple(reads)).compose()


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


def _trie_walk(x: Hda, seqs: Iterable[StepSequence], beyond: bool = False) -> tuple:
    """Walk the sparse paths of x against the trie of ``seqs`` (small int
    nodes, a root per initial loset).  A state (node, cell, step taken) is
    a path to the cell that reads the steps from a root to the node.  A
    step unlike the last goes to the child of the node that its reading
    (:func:`_reading`) names.  Node ``None`` is off the trie, where a
    start cell whose loset starts no sequence begins.  With ``beyond``, a
    step that names no child goes there too, as does every step on from
    there, when it enters a cell with a route to an accept cell
    (:attr:`Hda._to_accept`); without it, no such step is taken.  Returns
    the :func:`_bfs` result from the start cells and the node each
    sequence ends at."""
    roots: dict[Loset, int] = {}
    kids: dict[tuple[int, StarterTerminator], int] = {}
    leaves = []
    for seq in seqs:
        node = roots.setdefault(seq.initial_loset, len(roots) + len(kids))
        for st in seq.steps:
            node = kids.setdefault((node, st), len(roots) + len(kids))
        leaves.append(node)
    idx = x._index

    def nexts(state: tuple) -> list[tuple]:
        node, cell, last = state
        out = []
        for y, st in idx.after(cell, last and last.kind):
            child = None if node is None else kids.get((node, _reading(x, cell, y, st)))
            if child is not None or beyond and y in x._to_accept:
                out.append((child, y, st))
        return out

    starts = [(roots.get(x.cells[c].ev), c, None) for c in sorted(x.start)]
    return _bfs(starts, nexts), leaves


def _path(found: dict, state: tuple) -> Path:
    """The path of a :func:`_trie_walk` state, back along its links."""
    states = []
    while state is not None:
        states.append(state)
        state = found[state]
    return Path(tuple([s[1] for s in states[::-1]]), tuple([s[2] for s in states[-2::-1]]))


def member(x: Hda, p: Ipomset) -> Optional[Path]:
    """An accepting path with event ipomset p, if any: a sparse path folds
    to p exactly when it reads p's sparse decomposition, so this is
    :func:`_trie_walk` with that one sequence.  The witness ends at the
    first state found that pairs the sequence's last node with an accept
    cell."""
    found, (leaf,) = _trie_walk(x, [sparse_decomposition(p)])
    state = next((s for s in found if s[0] == leaf and s[1] in x.accept), None)
    return None if state is None else _path(found, state)


def compare_language(x: Hda, seqs: Sequence[StepSequence]) -> tuple[list[int], Optional[int]]:
    """Compare the sparse accepting paths of x with ``seqs``, the sparse
    decompositions of a finite language, in one :func:`_trie_walk` with no
    bound: the indices of the sequences no accepting path reads, and the
    fewest steps of an accepting path that reads none (``None`` if none
    does).  Such a path ends at an accept cell paired with a node that
    ends no sequence, or off the trie; the walk is breadth first, so the
    first such state found ends a shortest one."""
    found, leaves = _trie_walk(x, seqs, beyond=True)
    ends, accepted = set(leaves), {node for node, cell, _ in found if cell in x.accept}
    escape = next((s for s in found if s[1] in x.accept and s[0] not in ends), None)
    unread = [i for i, leaf in enumerate(leaves) if leaf not in accepted]
    return unread, None if escape is None else len(_path(found, escape).steps)


def _in_reach(x: Hda, cell: str, steps: int, max_steps: int) -> bool:
    """Whether a path entering ``cell`` at step ``steps`` can end at an
    accept cell within ``max_steps`` steps (:attr:`Hda._to_accept`).
    Alternation only lengthens paths, so this cut drops no accepting path."""
    dist = x._to_accept
    return cell in dist and steps + dist[cell] <= max_steps


def accepting_paths(x: Hda, max_steps: int) -> list[Path]:
    """All sparse accepting paths with at most ``max_steps`` steps, sorted
    by length, cells and positions: one :func:`_bfs` whose nodes are the
    paths ``(cells, steps)`` themselves, cut by :func:`_in_reach`."""

    def nexts(path: tuple) -> list[tuple]:
        cells, steps = path
        moves = x._index.after(cells[-1], steps[-1].kind if steps else None)
        n = len(steps) + 1
        return [(cells + (y,), steps + (st,)) for y, st in moves if _in_reach(x, y, n, max_steps)]

    starts = [((c,), ()) for c in sorted(x.start) if _in_reach(x, c, 0, max_steps)]
    out = [Path(*path) for path in _bfs(starts, nexts) if path[0][-1] in x.accept]
    out.sort(key=lambda p: (len(p.steps), p.cells, [sorted(s.positions) for s in p.steps]))
    return out


def enumerate_language(x: Hda, max_steps: int) -> frozenset[Ipomset]:
    """The event ipomsets of the sparse accepting paths within the bound:
    one :func:`_bfs` over states (node, cell, kind of the last step, steps
    taken), cut by :func:`_in_reach`.  A node is a step sequence read so
    far (:func:`_reading`), numbered as found, so a parent comes before its
    children.  Each node is folded once, from its parent's fold.  A node
    that no accepting path reads is folded too, and that cannot raise: the
    walk runs only on faces that type-check (:attr:`Hda._index`), so the
    step from a cell reads a terminator on that cell's loset or a starter
    that adds events to it, and that loset is the target loset of the
    parent's fold."""
    idx = x._index
    nodes: dict[tuple, int] = {}  # (parent node, reading), or (None, loset) for a root

    def nexts(state: tuple) -> list[tuple]:
        at, cell, kind, n = state
        return [
            (nodes.setdefault((at, _reading(x, cell, y, st)), len(nodes)), y, st.kind, n + 1)
            for y, st in idx.after(cell, kind)
            if _in_reach(x, y, n + 1, max_steps)
        ]

    roots = [c for c in sorted(x.start) if _in_reach(x, c, 0, max_steps)]
    starts = [(nodes.setdefault((None, x.cells[c].ev), len(nodes)), c, None, 0) for c in roots]
    found = _bfs(starts, nexts)
    folds: list[Ipomset] = []
    for parent, step in nodes:
        folds.append(identity(step) if parent is None else apply_step(folds[parent], *step))
    return frozenset([folds[at] for at, cell, _, _ in found if cell in x.accept])


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
    ess = essential_report(x).essential  # first: it type-checks the faces
    start_clashes = []
    per_loset: dict[Loset, list[str]] = {}
    for name in x.start:
        per_loset.setdefault(x.cells[name].ev, []).append(name)
    for loset, names in sorted(per_loset.items()):
        if len(names) > 1:
            start_clashes.append(loset)
    branch = []
    for base in sorted(ess):
        groups: dict[tuple[Loset, tuple[int, ...]], list[str]] = {}
        for big, st in x._index.up[base]:
            if big in ess:
                groups.setdefault((x.cells[big].ev, tuple(sorted(st.positions))), []).append(big)
        for (_loset, combo), names in sorted(groups.items()):
            branch += [(base, combo, a, b) for a, b in itertools.combinations(sorted(names), 2)]
    return DeterminismReport(
        deterministic=not start_clashes and not branch,
        start_clashes=tuple(start_clashes),
        branch_clashes=tuple(branch),
    )
