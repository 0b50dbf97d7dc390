"""Text formats: .ipo blocks, shorthand expressions, .lang and .hda files,
JSON emission, DOT emission, and interval logs, read as rows of
:class:`~hdalib.ipomset.IntervalRow` for :func:`~hdalib.ipomset.from_intervals`.

Shorthand grammar: rows separated by ``|`` (row order = event order), each
row a juxtaposed chain of single-letter labels, ``•`` (or ``.``) before or
after a letter marking source/target interface membership.  Anything with
cross-row precedence or multi-letter labels needs the block format.  In
every format a label is letters, digits and ``_``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional

from .errors import MalformedInterval, ParseError
from .hda import LOWER, UPPER, Cell, Hda, build_hda, composite_face
from .ipomset import (
    EMPTY,
    IntervalRow,
    Ipomset,
    canonicalize,
    sorted_ipomsets,
)
from .language import LanguageSet, language, prefix_quotient

BULLETS = "•."
EPSILONS = ("ε", "eps")
_LABEL_RE = re.compile(r"\w+")


def _label(text: str) -> str:
    """``text`` as a label, or :class:`ParseError` unless it is letters,
    digits and ``_`` only: no separator, bracket, quote, bullet or space of
    any format, so every writer can print it for every reader."""
    if not _LABEL_RE.fullmatch(text):
        raise ParseError(f"bad label {text!r}: expected letters, digits or _")
    return text


# ---------------------------------------------------------------------------
# shorthand expressions


def parse_expr(text: str) -> Ipomset:
    """Parse a shorthand ipomset expression."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if body.strip() in EPSILONS or not body.strip():
        return EMPTY
    rows = body.split("|")
    labels: list[str] = []
    source: list[int] = []
    target: list[int] = []
    prec: list[tuple[int, int]] = []
    evord: list[tuple[int, int]] = []
    row_events: list[list[int]] = []
    for row in rows:
        events = _parse_row(row.strip(), text)
        ids = []
        for lab, insrc, intgt in events:
            i = len(labels)
            labels.append(lab)
            if insrc:
                source.append(i)
            if intgt:
                target.append(i)
            ids.append(i)
        prec.extend(zip(ids, ids[1:]))
        row_events.append(ids)
    for k, row in enumerate(row_events):
        for later in row_events[k + 1 :]:
            evord.extend((a, b) for a in row for b in later)
    return canonicalize(labels, source, target, prec, evord)


def _parse_row(row: str, whole: str) -> list[tuple[str, bool, bool]]:
    out = []
    i = 0
    row = re.sub(r"\s+", "", row)
    while i < len(row):
        insrc = row[i] in BULLETS
        if insrc:
            i += 1
        if i >= len(row) or not _LABEL_RE.fullmatch(row[i]):
            raise ParseError(f"bad expression {whole!r}: expected a label in {row!r}")
        lab = row[i]
        i += 1
        intgt = i < len(row) and row[i] in BULLETS
        if intgt:
            i += 1
        out.append((lab, insrc, intgt))
    if not out:
        raise ParseError(f"bad expression {whole!r}: empty row")
    return out


def ipomset_to_text(p: Ipomset) -> str:
    """Shorthand when the expression grammar can carry the ipomset,
    otherwise a one-line block."""
    short = _try_shorthand(p)
    if short is not None:
        return short
    return ipomset_to_block(p, "P")


def _try_shorthand(p: Ipomset) -> Optional[str]:
    """The rows of the expression grammar, or ``None`` when p has none.

    Canonical indices extend precedence, so the rows grow in index order:
    each event joins the one row whose last event precedes it, or starts a
    new row.  When two rows qualify, the event joins two chains and p is no
    parallel product of chains.  A row built this way is a chain, and the
    cross-row check below makes the rows the components of precedence."""
    if p.n == 0:
        return "ε"
    if any(len(l) != 1 for l in p.labels):
        return None
    rows: list[list[int]] = []
    for e in range(p.n):
        joins = [row for row in rows if p.lt(row[-1], e)]
        if len(joins) > 1:
            return None
        if joins:
            joins[0].append(e)
        else:
            rows.append([e])
    # order rows by event order; all cross pairs must agree with it
    firsts = [row[0] for row in rows]
    rows.sort(key=lambda row: sum(1 for f in firsts if p.ev(f, row[0])))
    for i, row in enumerate(rows):
        for later in rows[i + 1 :]:
            for a in row:
                for b in later:
                    if p.lt(a, b) or p.lt(b, a) or not p.ev(a, b):
                        return None
    text = "|".join(
        "".join(
            ("•" if e in p.source else "") + p.labels[e] + ("•" if e in p.target else "")
            for e in row
        )
        for row in rows
    )
    if text in EPSILONS:  # a word spelling the empty ipomset
        return None
    return f"[{text}]" if len(rows) > 1 else text


# ---------------------------------------------------------------------------
# .ipo blocks


_BLOCK_RE = re.compile(r"ipomset\s+(\w+)\s*\{(.*)\}\s*$", re.S)


def parse_ipomset_block(text: str) -> tuple[str, Ipomset]:
    m = _BLOCK_RE.match(text.strip())
    if not m:
        raise ParseError("expected: ipomset NAME { ... }")
    name, body = m.group(1), m.group(2)
    sections = _sections(body, {"events", "source", "target", "prec", "evord"})
    ids: list[str] = []
    labels: list[str] = []
    for item in _split_list(sections.get("events", "")):
        eid, _, lab = (s.strip() for s in item.partition(":"))
        if ":" not in item or not eid:
            raise ParseError(f"bad event {item!r}: expected id:label")
        if eid in ids:
            raise ParseError(f"duplicate event id {eid!r}")
        ids.append(eid)
        labels.append(_label(lab))
    index = {eid: i for i, eid in enumerate(ids)}

    def lookup(eid):
        if eid not in index:
            raise ParseError(f"unknown event id {eid!r}")
        return index[eid]

    def pairs(section):
        out = []
        for item in _split_list(sections.get(section, "")):
            if "<" not in item:
                raise ParseError(f"bad {section} item {item!r}: expected id<id")
            a, b = (s.strip() for s in item.split("<", 1))
            out.append((lookup(a), lookup(b)))
        return out

    return name, canonicalize(
        labels,
        [lookup(e) for e in _split_list(sections.get("source", ""))],
        [lookup(e) for e in _split_list(sections.get("target", ""))],
        pairs("prec"),
        pairs("evord"),
    )


def _sections(body: str, allowed: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"bad section {part!r}")
        key, val = part.split(":", 1)
        key = key.strip()
        if key not in allowed:
            raise ParseError(f"unknown section {key!r}")
        if key in out:
            raise ParseError(f"duplicate section {key!r}")
        out[key] = val.strip()
    return out


def _split_list(text: str) -> list[str]:
    items = [t for chunk in text.split(",") for t in chunk.split()]
    return [i for i in items if i]


def parse_ipomset_text(text: str) -> Ipomset:
    """Accept either a block or a shorthand expression."""
    text = "\n".join(_strip_comment(l) for l in text.splitlines()).strip()
    if text.startswith("ipomset"):
        return parse_ipomset_block(text)[1]
    return parse_expr(text)


def ipomset_to_block(p: Ipomset, name: str = "P") -> str:
    events = ", ".join(f"e{i}:{l}" for i, l in enumerate(p.labels))
    parts = [f"events: {events}"]
    if p.source:
        parts.append("source: " + " ".join(f"e{i}" for i in sorted(p.source)))
    if p.target:
        parts.append("target: " + " ".join(f"e{i}" for i in sorted(p.target)))
    prec = _reduction(p.n, p.lt)
    if prec:
        parts.append("prec: " + " ".join(f"e{a}<e{b}" for a, b in prec))
    ev = _reduction(p.n, lambda i, j: p.ev(i, j) and p.is_concurrent(i, j))
    if ev:
        parts.append("evord: " + " ".join(f"e{a}<e{b}" for a, b in ev))
    return f"ipomset {name} {{ " + "; ".join(parts) + " }"


def _reduction(n: int, rel) -> list[tuple[int, int]]:
    # covering pairs of a DAG: drop edges implied by a two-step path
    mat = [[rel(i, j) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if mat[i][j] and not any(mat[i][k] and mat[k][j] for k in range(n)):
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# JSON


def ipomset_to_json(p: Ipomset) -> dict:
    return {
        "labels": list(p.labels),
        "source": sorted(p.source),
        "target": sorted(p.target),
        "prec": [[i, j] for i in range(p.n) for j in range(p.n) if p.lt(i, j)],
        "evord": [[i, j] for i in range(p.n) for j in range(p.n) if p.ev(i, j)],
    }


def ipomset_from_json(obj: dict) -> Ipomset:
    """The ipomset of an :func:`ipomset_to_json` object.  Raises
    :class:`ParseError` on an object of another shape, and
    :class:`AxiomViolation` as :func:`canonicalize` does."""
    if not isinstance(obj, dict) or "labels" not in obj:
        raise ParseError("ipomset JSON: expected an object with labels")
    labels = _json_list(obj, "labels", lambda x: isinstance(x, str), "strings")
    return canonicalize(
        [_label(lab) for lab in labels],
        _json_list(obj, "source", _is_int, "ints"),
        _json_list(obj, "target", _is_int, "ints"),
        _json_list(obj, "prec", _is_pair, "pairs of ints"),
        _json_list(obj, "evord", _is_pair, "pairs of ints"),
    )


def _json_list(obj: dict, key: str, ok: Callable[[object], bool], what: str) -> list:
    items = obj.get(key, [])
    if not isinstance(items, list) or not all(ok(x) for x in items):
        raise ParseError(f"ipomset JSON: {key} must be a list of {what}")
    return items


def _is_int(x: object) -> bool:
    return type(x) is int  # JSON true and false are not event indices


def _is_pair(x: object) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_int, x))


def class_table(mn) -> dict:
    """The class table of a Myhill-Nerode automaton, as a JSON value: the
    table that ``mn build --classes`` writes, quotients read from the index."""

    def cell(c):
        rep = c.representative
        quotient = [] if rep is None else sorted_ipomsets(prefix_quotient(mn.lang, rep))
        return {
            "kind": c.kind,
            "loset": list(c.loset),
            "essential": c.essential,
            "representative": None if rep is None else ipomset_to_json(rep),
            "representative_text": None if rep is None else ipomset_to_text(rep),
            "quotient": [ipomset_to_json(q) for q in quotient],
        }

    return {
        "start": sorted(mn.hda.start),
        "accept": sorted(mn.hda.accept),
        "cells": {cid: cell(c) for cid, c in mn.cells.items()},
    }


# ---------------------------------------------------------------------------
# .lang files


def parse_lang(text: str) -> LanguageSet:
    lines = [_strip_comment(l) for l in text.splitlines()]
    alphabet: Optional[list[str]] = None
    closed = False
    members: list[Ipomset] = []
    in_members = False
    seen: set[str] = set()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if in_members:
            members.append(parse_ipomset_text(line))
            continue
        # alphabet: and closed: come at most once each
        head = line.split(":", 1)[0]
        if head in seen:
            raise ParseError(f"duplicate {head}: line")
        seen.add(head)
        if line.startswith("alphabet:"):
            alphabet = line[len("alphabet:") :].split()
        elif line.startswith("closed:"):
            val = line[len("closed:") :].strip().lower()
            if val not in ("true", "false"):
                raise ParseError(f"closed: expected true or false, got {val!r}")
            closed = val == "true"
        elif line.startswith("members:"):
            in_members = True
            rest = line[len("members:") :].strip()
            if rest:
                members.append(parse_ipomset_text(rest))
        else:
            raise ParseError(f"unexpected line {line!r}")
    if not in_members:
        raise ParseError("missing members: section")
    return language(members, closed=closed, alphabet=alphabet)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


# ---------------------------------------------------------------------------
# .hda files


_HDA_RE = re.compile(r"hda\s+(\w+)\s*\{(.*)\}\s*$", re.S)
_CELL_RE = re.compile(r"cell\s+(\S+)\s*:\s*\[([^\]]*)\]\s*(.*)$", re.S)
_FACE_RE = re.compile(r"d([01])\((\d+)\)\s*=\s*(\S+)")


def parse_hda(text: str) -> Hda:
    text = "\n".join(_strip_comment(l) for l in text.splitlines())
    m = _HDA_RE.match(text.strip())
    if not m:
        raise ParseError("expected: hda NAME { ... }")
    name, body = m.group(1), m.group(2)
    cells: list[Cell] = []
    names: set[str] = set()
    marks: dict[str, list[str]] = {}  # the start: and accept: statements
    for stmt in body.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        if stmt.startswith("cell"):
            cell = _parse_cell(stmt)
            if cell.name in names:
                raise ParseError(f"duplicate cell {cell.name!r}")
            names.add(cell.name)
            cells.append(cell)
        elif stmt.startswith(("start:", "accept:")):
            head, rest = stmt.split(":", 1)
            if head in marks:
                raise ParseError(f"duplicate {head}: statement")
            marks[head] = rest.split()
        else:
            raise ParseError(f"unexpected statement {stmt!r}")
    start, accept = marks.get("start", []), marks.get("accept", [])
    for cid in start + accept:
        if cid not in names:
            raise ParseError(f"start/accept references unknown cell {cid!r}")
    return build_hda(cells, start, accept, name=name)


def _parse_cell(stmt: str) -> Cell:
    m = _CELL_RE.match(stmt)
    if not m:
        raise ParseError(f"bad cell statement {stmt!r}")
    name, losettxt, facetxt = m.groups()
    loset = tuple(map(_label, losettxt.split()))
    dim = len(loset)
    lower: list[Optional[str]] = [None] * dim
    upper: list[Optional[str]] = [None] * dim
    consumed = _FACE_RE.sub("", facetxt).strip()
    if consumed:
        raise ParseError(f"cell {name}: unparsed face text {consumed!r}")
    for kind, pos, tgt in _FACE_RE.findall(facetxt):
        i = int(pos) - 1
        if not (0 <= i < dim):
            raise ParseError(f"cell {name}: face position {pos} out of range")
        faces = lower if kind == "0" else upper
        if faces[i] is not None:
            raise ParseError(f"cell {name}: duplicate face d{kind}({pos})")
        faces[i] = tgt
    for i in range(dim):
        if lower[i] is None or upper[i] is None:
            raise ParseError(f"cell {name}: missing face at position {i + 1}")
    return Cell(name=name, ev=loset, lower=tuple(lower), upper=tuple(upper))


def hda_to_text(x: Hda) -> str:
    lines = [f"hda {x.name} {{"]
    for c in x.cells.values():
        stmt = f"  cell {c.name}: [{' '.join(c.ev)}]"
        if c.dim:
            stmt += " " + _faces(c, " ")
        lines.append(stmt + " ;")
    lines.append("  start: " + " ".join(sorted(x.start)) + " ;")
    lines.append("  accept: " + " ".join(sorted(x.accept)) + " ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _faces(c: Cell, sep: str) -> str:
    """The face list ``d0(i)=… d1(i)=…`` of a cell, positions joined by sep."""
    return sep.join(
        f"d0({i + 1})={c.lower[i]} d1({i + 1})={c.upper[i]}" for i in range(c.dim)
    )


# ---------------------------------------------------------------------------
# DOT


def hda_to_dot(x: Hda) -> str:
    """Vertices and labelled edges; higher cells become shaded clusters with
    a comment block naming their boundary."""
    out = [f"digraph {x.name} {{", "  rankdir=LR;", '  node [shape=circle];']
    for c in sorted(x.cells.values(), key=lambda c: c.name):
        if c.dim != 0:
            continue
        marks = _marks(x, c.name)
        shape = "doublecircle" if c.name in x.accept else "circle"
        out.append(f'  "{c.name}" [shape={shape}, label="{c.name}{marks}"];')
    for c in sorted(x.cells.values(), key=lambda c: c.name):
        if c.dim != 1:
            continue
        label = f"{c.ev[0]} ({c.name}){_marks(x, c.name)}"
        out.append(f'  "{c.lower[0]}" -> "{c.upper[0]}" [label="{label}"];')
    for c in sorted(x.cells.values(), key=lambda c: c.name):
        if c.dim < 2:
            continue
        out.append(f"  // cell {c.name} [{' '.join(c.ev)}]: {_faces(c, ', ')}")
        if c.dim == 2:
            corners = sorted(
                {
                    composite_face(x, composite_face(x, c.name, k1, [0]), k2, [0])
                    for k1 in (LOWER, UPPER)
                    for k2 in (LOWER, UPPER)
                }
            )
            inner = " ".join(f'"{v}";' for v in corners)
            out.append(
                f"  subgraph cluster_{_dot_id(c.name)} {{ label=\"{c.name}"
                f"{_marks(x, c.name)}\"; style=filled; color=lightgrey; {inner} }}"
            )
    out.append("}")
    return "\n".join(out) + "\n"


def _marks(x: Hda, name: str) -> str:
    return ("" if name not in x.start else " (start)") + (
        "" if name not in x.accept else " (accept)"
    )


def _dot_id(name: str) -> str:
    return re.sub(r"\W", "_", name)


# ---------------------------------------------------------------------------
# interval logs


LOG_HEADER = ["event_id", "label", "begin", "end", "open_left", "open_right"]


def parse_log(text: str) -> tuple[IntervalRow, ...]:
    """The rows of an interval log, in input order.  ``open_left`` (active
    before the observation started) marks a source event, ``open_right``
    (still active at the end) a target event."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or [c.strip() for c in lines[0].split(",")] != LOG_HEADER:
        raise ParseError(f"log must start with header {','.join(LOG_HEADER)}")
    rows, ids = [], set()
    for line in lines[1:]:
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 6 or not parts[0]:
            raise ParseError(f"bad log line {line!r}")
        eid, lab, b, e, ol, orr = parts
        if eid in ids:
            raise ParseError(f"duplicate event id {eid!r}")
        ids.add(eid)
        rows.append(
            IntervalRow(
                event=eid,
                label=_label(lab),
                begin=_fraction(b),
                end=_fraction(e),
                left_closed=_flag(ol),
                right_closed=_flag(orr),
            )
        )
    return tuple(rows)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInterval(f"bad timestamp {text!r}") from exc


def _flag(text: str) -> bool:
    val = text.lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ParseError(f"bad boolean {text!r}")
