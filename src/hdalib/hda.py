"""Finite higher-dimensional automata: cells, face maps, paths, languages.

Cells carry a loset of active events; only singleton face maps are stored,
composites are derived (the precubical identities make that lossless).
Searches treat an upstep into a cell y at positions A as the inverse of
the composite lower face δ⁰_A of y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FaceTypingError, IdentityViolation
from .ipomset import (
    Ipomset,
    Loset,
    STARTER,
    glue,
    identity,
    sparse_decomposition,
    starter,
    terminator,
)

LOWER = 0
UPPER = 1

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class Cell:
    name: str
    ev: Loset
    lower: tuple[str, ...] = ()  # singleton faces, one per loset position
    upper: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.ev)


@dataclass
class Hda:
    """A finite HDA with start and accept cells (any dimension)."""

    cells: dict[str, Cell]
    start: frozenset[str]
    accept: frozenset[str]
    name: str = "hda"

    def __getitem__(self, name: str) -> Cell:
        return self.cells[name]

    def alphabet(self) -> frozenset[str]:
        return frozenset(itertools.chain.from_iterable(c.ev for c in self.cells.values()))


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


def validate(x: Hda, strict: bool = False) -> ValidationReport:
    """Check face typing and the precubical identities.

    With ``strict=True`` the first problem raises (:class:`FaceTypingError`
    or :class:`IdentityViolation`) instead of being collected.
    """
    problems: list[str] = []

    def fail(kind, msg):
        if strict:
            raise kind(msg)
        problems.append(msg)

    for c in x.cells.values():
        if c.dim and (len(c.lower) != c.dim or len(c.upper) != c.dim):
            fail(FaceTypingError, f"cell {c.name}: face lists must cover every position")
            continue
        for pos in range(c.dim):
            want = c.ev[:pos] + c.ev[pos + 1 :]
            for kind, faces in ((LOWER, c.lower), (UPPER, c.upper)):
                tgt = faces[pos]
                if tgt not in x.cells:
                    fail(FaceTypingError, f"cell {c.name}: face {tgt!r} undefined")
                    continue
                if x.cells[tgt].ev != want:
                    fail(
                        FaceTypingError,
                        f"cell {c.name}: d{kind}({pos + 1}) has loset "
                        f"{x.cells[tgt].ev}, expected {want}",
                    )
    for name in x.start | x.accept:
        if name not in x.cells:
            fail(FaceTypingError, f"start/accept cell {name!r} undefined")
    if problems:
        return ValidationReport(ok=False, problems=tuple(problems))

    # precubical identities on singleton pairs: removing position j then i
    # (i < j) must equal removing i then j-1
    for c in x.cells.values():
        for i, j in itertools.combinations(range(c.dim), 2):
            for nu, mu in itertools.product((LOWER, UPPER), repeat=2):
                via_j = _face(x, _face(x, c.name, mu, j), nu, i)
                via_i = _face(x, _face(x, c.name, nu, i), mu, j - 1)
                if via_j != via_i:
                    fail(
                        IdentityViolation,
                        f"cell {c.name}: d{nu}({i + 1}) and d{mu}({j + 1}) "
                        f"do not commute ({via_j} vs {via_i})",
                    )
    return ValidationReport(ok=not problems, problems=tuple(problems))


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

    @property
    def source(self) -> str:
        return self.cells[0]

    @property
    def target(self) -> str:
        return self.cells[-1]

    def __len__(self) -> int:
        return len(self.steps)

    def is_sparse(self) -> bool:
        kinds = [s.kind for s in self.steps]
        return all(s.positions for s in self.steps) and all(
            a != b for a, b in zip(kinds, kinds[1:])
        )

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
    """The event ipomset of a path: glue of its per-step steps."""
    out = identity(x.cells[path.source].ev)
    for k, st in enumerate(path.steps):
        if st.kind == UP:
            big = x.cells[path.cells[k + 1]].ev
            out = glue(out, starter(big, st.positions))
        else:
            big = x.cells[path.cells[k]].ev
            out = glue(out, terminator(big, st.positions))
    return out


def sparse_normalize(x: Hda, path: Path) -> Path:
    """The unique sparse representative of a path's equivalence class."""
    cells = list(path.cells)
    steps = list(path.steps)
    k = 0
    while k < len(steps):
        if not steps[k].positions:  # empty step: the two cells coincide
            del steps[k]
            del cells[k + 1]
            continue
        if k + 1 < len(steps) and steps[k].kind == steps[k + 1].kind:
            merged = _merge(x, steps[k], steps[k + 1], cells[k], cells[k + 2])
            steps[k : k + 2] = [merged]
            del cells[k + 1]
            continue
        k += 1
    return Path(cells=tuple(cells), steps=tuple(steps))


def _merge(x: Hda, s1: PathStep, s2: PathStep, first: str, last: str) -> PathStep:
    if s1.kind == UP:
        # positions of the middle cell reindex into the bigger final cell
        keep = [p for p in range(len(x.cells[last].ev)) if p not in s2.positions]
        pos = frozenset(keep[p] for p in s1.positions) | s2.positions
        if composite_face(x, last, LOWER, pos) != first:
            raise FaceTypingError(f"merged upstep: {first} is not δ⁰ of {last}")
        return PathStep(UP, pos)
    keep = [p for p in range(len(x.cells[first].ev)) if p not in s1.positions]
    pos = s1.positions | frozenset(keep[p] for p in s2.positions)
    if composite_face(x, first, UPPER, pos) != last:
        raise FaceTypingError(f"merged downstep: {last} is not δ¹ of {first}")
    return PathStep(DOWN, pos)


# ---------------------------------------------------------------------------
# reachability, essential part


def _upstep_index(x: Hda) -> dict[str, list[tuple[str, frozenset[int]]]]:
    """cell -> all (bigger cell, positions) with δ⁰_A(bigger) = cell."""
    idx: dict[str, list[tuple[str, frozenset[int]]]] = {c: [] for c in x.cells}
    for c in x.cells.values():
        for r in range(1, c.dim + 1):
            for combo in itertools.combinations(range(c.dim), r):
                small = composite_face(x, c.name, LOWER, combo)
                idx[small].append((c.name, frozenset(combo)))
    return idx


def _downstep_index(x: Hda) -> dict[str, list[tuple[str, frozenset[int]]]]:
    """cell -> all (target, positions) one downstep away."""
    idx: dict[str, list[tuple[str, frozenset[int]]]] = {}
    for c in x.cells.values():
        moves = []
        for r in range(1, c.dim + 1):
            for combo in itertools.combinations(range(c.dim), r):
                moves.append((composite_face(x, c.name, UPPER, combo), frozenset(combo)))
        idx[c.name] = moves
    return idx


@dataclass(frozen=True)
class EssentialReport:
    accessible: frozenset[str]
    coaccessible: frozenset[str]
    essential: frozenset[str]


def essential_report(x: Hda) -> EssentialReport:
    """Forward search from start cells, backward from accept cells."""
    acc = set(x.start)
    frontier = list(acc)
    while frontier:
        cur = frontier.pop()
        c = x.cells[cur]
        nexts = [c.upper[p] for p in range(c.dim)]
        nexts += [up for up, _ in _upsteps_from(x, cur)]
        for n in nexts:
            if n not in acc:
                acc.add(n)
                frontier.append(n)
    coacc = set(x.accept)
    rev_upper: dict[str, list[str]] = {c: [] for c in x.cells}
    for c in x.cells.values():
        for p in range(c.dim):
            rev_upper[c.upper[p]].append(c.name)
    frontier = list(coacc)
    while frontier:
        cur = frontier.pop()
        c = x.cells[cur]
        preds = list(rev_upper[cur])  # cells with a downstep into cur
        preds += [c.lower[p] for p in range(c.dim)]  # cells one upstep before cur
        for n in preds:
            if n not in coacc:
                coacc.add(n)
                frontier.append(n)
    return EssentialReport(
        accessible=frozenset(acc),
        coaccessible=frozenset(coacc),
        essential=frozenset(acc & coacc),
    )


def _upsteps_from(x: Hda, cell: str):
    # singleton upsteps suffice for reachability
    for c in x.cells.values():
        for p in range(c.dim):
            if c.lower[p] == cell:
                yield c.name, p


def ess_closure(x: Hda) -> Hda:
    """The smallest sub-HDA containing every essential cell."""
    ess = essential_report(x).essential
    keep: set[str] = set()
    for name in ess:
        c = x.cells[name]
        for a_size in range(c.dim + 1):
            for a in itertools.combinations(range(c.dim), a_size):
                rest = [p for p in range(c.dim) if p not in a]
                for b_size in range(len(rest) + 1):
                    for b in itertools.combinations(rest, b_size):
                        mid = composite_face(x, c.name, UPPER, b)
                        keep.add(composite_face(x, mid, LOWER, _shift(a, b)))
    cells = {n: x.cells[n] for n in x.cells if n in keep}
    return Hda(
        cells=cells,
        start=x.start & keep,
        accept=x.accept & keep,
        name=x.name + "_ess",
    )


def _shift(a: Sequence[int], removed: Sequence[int]) -> tuple[int, ...]:
    # reindex positions a after the positions in removed are gone
    return tuple(p - sum(r < p for r in removed) for p in a)


# ---------------------------------------------------------------------------
# membership and language enumeration


def member(
    x: Hda,
    p: Ipomset,
    sources: Optional[Iterable[str]] = None,
    targets: Optional[Iterable[str]] = None,
) -> Optional[Path]:
    """A path from a source to a target cell with event ipomset p, if any.

    Searches the sparse decomposition of p step by step; upsteps run
    through the reverse lower-face index.
    """
    srcs = x.start if sources is None else frozenset(sources)
    tgts = x.accept if targets is None else frozenset(targets)
    seq = sparse_decomposition(p)
    steps = seq.steps
    up_index = _upstep_index(x)
    frontier = [name for name in srcs if x.cells[name].ev == seq.initial_loset]
    parents: dict[tuple[int, str], tuple[int, str, PathStep]] = {}
    seen = {(0, name) for name in frontier}
    queue = [(0, name) for name in frontier]
    goal = None
    while queue:
        k, cell = queue.pop(0)
        if k == len(steps):
            if cell in tgts:
                goal = (k, cell)
                break
            continue
        st = steps[k]
        if st.kind == STARTER:
            for big, pos in up_index[cell]:
                if pos == st.active and x.cells[big].ev == st.loset:
                    _enqueue(parents, seen, queue, (k, cell), (k + 1, big), PathStep(UP, pos))
        else:
            if x.cells[cell].ev == st.loset:
                nxt = composite_face(x, cell, UPPER, st.active)
                _enqueue(
                    parents, seen, queue, (k, cell), (k + 1, nxt), PathStep(DOWN, st.active)
                )
    if goal is None:
        return None
    cells = [goal[1]]
    moves: list[PathStep] = []
    cur = goal
    while cur in parents:
        pk, pcell, pstep = parents[cur]
        cells.append(pcell)
        moves.append(pstep)
        cur = (pk, pcell)
    return Path(cells=tuple(reversed(cells)), steps=tuple(reversed(moves)))


def _enqueue(parents, seen, queue, cur, nxt, step):
    if nxt not in seen:
        seen.add(nxt)
        parents[nxt] = (cur[0], cur[1], step)
        queue.append(nxt)


def accepting_paths(x: Hda, max_steps: int) -> list[Path]:
    """All sparse accepting paths with at most ``max_steps`` steps.

    A depth-first search from the start cells, sorted by length, cells and
    positions.  It enters a cell only when an accept cell is still within
    the remaining steps, judged by the fewest steps to one in either
    direction; alternation only lengthens paths, so the cut drops no path.
    A name that is not a cell counts as in reach, so the search still
    meets it and fails on it where an uncut search would.
    """
    up_index = _upstep_index(x)
    down_index = _downstep_index(x)
    dist = _steps_to_accept(x, up_index, down_index)
    out: list[Path] = []

    def in_reach(cell: str, steps: int) -> bool:
        return cell in dist and steps + dist[cell] <= max_steps

    def extend(cells: list[str], steps: list[PathStep]):
        cur = cells[-1]
        if cur in x.accept:
            out.append(Path(cells=tuple(cells), steps=tuple(steps)))
        if len(steps) == max_steps:
            return
        n = len(steps) + 1
        last = steps[-1].kind if steps else None
        if last != UP:
            for big, pos in up_index[cur]:
                if in_reach(big, n):
                    extend(cells + [big], steps + [PathStep(UP, pos)])
        if last != DOWN:
            for tgt, pos in down_index[cur]:
                if in_reach(tgt, n):
                    extend(cells + [tgt], steps + [PathStep(DOWN, pos)])

    for s in sorted(x.start):
        if in_reach(s, 0):
            extend([s], [])
    out.sort(key=lambda p: (len(p.steps), p.cells, [sorted(s.positions) for s in p.steps]))
    return out


def _steps_to_accept(x: Hda, up_index, down_index) -> dict[str, int]:
    """Fewest up or down steps from each name to an accept cell or to a
    name that is not a cell, by one breadth-first search over reversed
    steps; names with no such route are absent."""
    preds: dict[str, list[str]] = {}
    for index in (up_index, down_index):
        for cell, moves in index.items():
            for nxt, _ in moves:
                preds.setdefault(nxt, []).append(cell)
    undefined = (x.start | preds.keys()) - x.cells.keys()
    dist = dict.fromkeys(x.accept | undefined, 0)
    frontier = list(dist)
    for cell in frontier:  # grows while it is read: a FIFO queue
        for p in preds.get(cell, ()):
            if p not in dist:
                dist[p] = dist[cell] + 1
                frontier.append(p)
    return dist


def enumerate_language(x: Hda, max_steps: int) -> frozenset[Ipomset]:
    """Event ipomsets of all sparse accepting paths within the bound."""
    return frozenset(ev_of_path(x, p) for p in accepting_paths(x, max_steps))


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
    groups: dict[tuple[str, Loset, tuple[int, ...]], list[str]] = {}
    for name in sorted(ess):
        c = x.cells[name]
        for r in range(1, c.dim + 1):
            for combo in itertools.combinations(range(c.dim), r):
                base = composite_face(x, name, LOWER, combo)
                if base in ess:
                    groups.setdefault((base, c.ev, combo), []).append(name)
    branch = []
    for (base, _loset, combo), names in sorted(groups.items()):
        if len(names) > 1:
            for a, b in itertools.combinations(sorted(names), 2):
                branch.append((base, combo, a, b))
    return DeterminismReport(
        deterministic=not start_clashes and not branch,
        start_clashes=tuple(start_clashes),
        branch_clashes=tuple(branch),
    )
