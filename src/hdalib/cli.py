"""Command-line front end.

Exit codes: 0 for a true verdict or successful computation, 1 for a false
verdict or counterexample, 2 for errors (parse failures, axiom violations,
interface mismatches).  ``--json`` switches verdict commands to a
machine-readable object on stdout.  The HDALIB_MAX_STEPS environment
variable sets the default bound for language enumeration; a value that is
not a positive integer is an error (exit code 2), as is a ``--max-steps``
below 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import hda as hda_mod
from . import language as lang_mod
from . import myhill_nerode as mn_mod
from .errors import HdalibError, ParseError
from .formats import (
    TIE_BREAKS,
    hda_to_dot,
    hda_to_text,
    ingest_log,
    ipomset_to_block,
    ipomset_to_json,
    ipomset_to_text,
    parse_hda,
    parse_ipomset_text,
    parse_lang,
    parse_log,
)
from .ipomset import (
    enumerate_divisions,
    glue,
    refinements,
    sorted_ipomsets,
    sparse_decomposition,
    subsumes_witness,
)

DEFAULT_MAX_STEPS = 12


def _default_max_steps() -> int:
    """HDALIB_MAX_STEPS, read when a command needs it, else the fallback."""
    raw = os.environ.get("HDALIB_MAX_STEPS", str(DEFAULT_MAX_STEPS))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ParseError(f"HDALIB_MAX_STEPS must be a positive integer, got {raw!r}")
    return int(raw)


def _read_file(arg: str) -> str:
    """The text of the file ``arg`` names.  A missing file raises
    :class:`FileNotFoundError`, which ``main`` reports; a directory, an
    unreadable file or one that is not UTF-8 text raises :class:`ParseError`."""
    try:
        return Path(arg).read_text()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {arg}: {exc}") from exc


def _write_file(arg: str, text: str) -> None:
    """Write ``text`` to the file ``arg`` names.  A directory, a missing
    parent or an unwritable path raises :class:`ParseError`."""
    try:
        Path(arg).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {arg}: {exc}") from exc


def _read_ipomset(arg: str):
    """Parse the regular file ``arg`` names, else ``arg`` itself as an
    expression.  Any other existing path is an error, and ``""`` is an
    expression, never the current directory."""
    path = Path(arg)
    try:
        is_file, exists = path.is_file(), path.exists()
    except OSError:  # a name no path can have, e.g. one too long
        is_file = exists = False
    if is_file:
        return parse_ipomset_text(_read_file(arg))
    if arg and exists:
        raise ParseError(f"{arg} is not a regular file")
    return parse_ipomset_text(arg)


def _read_lang(arg: str, alphabet=None):
    out = parse_lang(_read_file(arg))
    if alphabet:
        out = lang_mod.language(
            out.generators, closed=False, alphabet=alphabet.split()
        )
    return out


def _read_hda(arg: str):
    return parse_hda(_read_file(arg))


def _emit(obj, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _quotient_json(q):
    return [ipomset_to_json(m) for m in sorted_ipomsets(q)]


def _set_text(q):
    return "{" + ", ".join(ipomset_to_text(m) for m in sorted_ipomsets(q)) + "}"


# ---------------------------------------------------------------------------
# ipo subcommands


def cmd_ipo_canon(args) -> int:
    p = _read_ipomset(args.input)
    if args.json:
        print(json.dumps(ipomset_to_json(p), indent=2, sort_keys=True))
    else:
        print(ipomset_to_block(p, args.name))
        print(ipomset_to_text(p))
    return 0


def cmd_ipo_glue(args) -> int:
    p = glue(_read_ipomset(args.left), _read_ipomset(args.right))
    _emit(ipomset_to_json(p), args.json, [ipomset_to_text(p)])
    return 0


def cmd_ipo_subsume(args) -> int:
    p = _read_ipomset(args.left)
    q = _read_ipomset(args.right)
    w = subsumes_witness(p, q)
    if args.json:
        print(json.dumps({"subsumes": w is not None, "bijection": list(w) if w else None}))
    elif w is None:
        print("no subsumption")
    else:
        print("subsumes via " + " ".join(f"{i}->{j}" for i, j in enumerate(w)))
    return 0 if w is not None else 1


def cmd_ipo_decompose(args) -> int:
    seq = sparse_decomposition(_read_ipomset(args.input))
    if args.json:
        print(
            json.dumps(
                {
                    "initial": list(seq.initial_loset),
                    "steps": [
                        {
                            "kind": s.kind,
                            "loset": list(s.loset),
                            "active": sorted(s.active),
                        }
                        for s in seq.steps
                    ],
                }
            )
        )
    else:
        print("initial: " + (" ".join(seq.initial_loset) or "(empty)"))
        for s in seq.steps:
            print(f"  {s!r}")
    return 0


def cmd_ipo_refine(args) -> int:
    refs = refinements(_read_ipomset(args.input))
    _emit(
        _quotient_json(refs),
        args.json,
        [ipomset_to_text(r) for r in sorted_ipomsets(refs)],
    )
    return 0


def cmd_ipo_divide(args) -> int:
    divs = enumerate_divisions(_read_ipomset(args.input))
    pairs = sorted(divs, key=lambda t: (t[0].sort_key(), t[1].sort_key()))
    _emit(
        [[ipomset_to_json(a), ipomset_to_json(b)] for a, b in pairs],
        args.json,
        [f"({ipomset_to_text(a)} , {ipomset_to_text(b)})" for a, b in pairs],
    )
    return 0


# ---------------------------------------------------------------------------
# hda subcommands


def cmd_hda_validate(args) -> int:
    rep = hda_mod.validate(_read_hda(args.input))
    _emit(
        {"valid": rep.ok, "problems": list(rep.problems)},
        args.json,
        ["valid"] if rep.ok else list(rep.problems),
    )
    return 0 if rep.ok else 1


def cmd_hda_lang(args) -> int:
    bound = _default_max_steps() if args.max_steps is None else args.max_steps
    if bound < 1:
        raise ParseError(f"--max-steps must be a positive integer, got {bound}")
    members = hda_mod.enumerate_language(_read_hda(args.input), bound)
    _emit(
        _quotient_json(members),
        args.json,
        [ipomset_to_text(m) for m in sorted_ipomsets(members)],
    )
    return 0


def cmd_hda_member(args) -> int:
    if bool(args.expr) == bool(args.ipomset):
        print("error: give an ipomset file or --expr", file=sys.stderr)
        return 2
    x = _read_hda(args.input)
    p = parse_ipomset_text(args.expr) if args.expr else _read_ipomset(args.ipomset)
    path = hda_mod.member(x, p)
    if args.json:
        print(
            json.dumps(
                {
                    "member": path is not None,
                    "path": None
                    if path is None
                    else {
                        "cells": list(path.cells),
                        "steps": [
                            {"kind": s.kind, "positions": sorted(s.positions)}
                            for s in path.steps
                        ],
                    },
                }
            )
        )
    else:
        print("no accepting path" if path is None else f"witness: {path!r}")
    return 0 if path is not None else 1


def cmd_hda_ess(args) -> int:
    rep = hda_mod.essential_report(_read_hda(args.input))
    _emit(
        {
            "accessible": sorted(rep.accessible),
            "coaccessible": sorted(rep.coaccessible),
            "essential": sorted(rep.essential),
        },
        args.json,
        [
            "accessible:   " + " ".join(sorted(rep.accessible)),
            "coaccessible: " + " ".join(sorted(rep.coaccessible)),
            "essential:    " + " ".join(sorted(rep.essential)),
        ],
    )
    return 0


def cmd_hda_det(args) -> int:
    rep = hda_mod.is_deterministic(_read_hda(args.input))
    lines = ["deterministic" if rep.deterministic else "nondeterministic"]
    for loset in rep.start_clashes:
        lines.append(f"  several start cells of type [{' '.join(loset)}]")
    for base, pos, a, b in rep.branch_clashes:
        lines.append(f"  cells {a} and {b} share lower face {base} at positions "
                     + ",".join(str(p + 1) for p in pos))
    _emit(
        {
            "deterministic": rep.deterministic,
            "start_clashes": [list(l) for l in rep.start_clashes],
            "branch_clashes": [
                {"base": base, "positions": [p + 1 for p in pos], "cells": [a, b]}
                for base, pos, a, b in rep.branch_clashes
            ],
        },
        args.json,
        lines,
    )
    return 0 if rep.deterministic else 1


# ---------------------------------------------------------------------------
# lang subcommands


def cmd_lang_quotient(args) -> int:
    if bool(args.prefix) == bool(args.suffix):
        print("error: give exactly one of --prefix or --suffix", file=sys.stderr)
        return 2
    lang = _read_lang(args.input, args.alphabet)
    p = parse_ipomset_text(args.prefix if args.prefix else args.suffix)
    q = (
        lang_mod.prefix_quotient(lang, p)
        if args.prefix
        else lang_mod.suffix_quotient(lang, p)
    )
    _emit(_quotient_json(q), args.json, [_set_text(q)])
    return 0


def cmd_lang_swapinv(args) -> int:
    lang = _read_lang(args.input, args.alphabet)
    res = lang_mod.is_swap_invariant(lang)
    if args.json:
        print(
            json.dumps(
                {
                    "swap_invariant": res.invariant,
                    "violations": [
                        {
                            "refined": ipomset_to_json(p),
                            "subsuming": ipomset_to_json(q),
                            "refined_quotient": _quotient_json(
                                lang_mod.prefix_quotient(lang, p)
                            ),
                            "subsuming_quotient": _quotient_json(
                                lang_mod.prefix_quotient(lang, q)
                            ),
                        }
                        for p, q in res.violations
                    ],
                }
            )
        )
    elif res.invariant:
        print("swap-invariant")
    else:
        print("not swap-invariant")
        for p, q in res.violations:
            qp = _set_text(lang_mod.prefix_quotient(lang, p))
            qq = _set_text(lang_mod.prefix_quotient(lang, q))
            print(f"  {ipomset_to_text(p)} ⊑ {ipomset_to_text(q)} but {qp} != {qq}")
    return 0 if res.invariant else 1


def cmd_lang_suff(args) -> int:
    lang = _read_lang(args.input, args.alphabet)
    fam = lang_mod.suffix_quotient_family(lang)
    lines = [f"{len(fam)} distinct quotients"]
    for rep, val in fam.entries:
        who = ipomset_to_text(rep) if rep is not None else "(non-prefix)"
        lines.append(f"  {who}: {_set_text(val)}")
    _emit(
        [
            {
                "representative": None if rep is None else ipomset_to_json(rep),
                "quotient": _quotient_json(val),
            }
            for rep, val in fam.entries
        ],
        args.json,
        lines,
    )
    return 0


# ---------------------------------------------------------------------------
# mn subcommands


def cmd_mn_build(args) -> int:
    lang = _read_lang(args.input, args.alphabet)
    mn = mn_mod.build_mn(lang)
    if args.out:
        _write_file(args.out, hda_to_text(mn.hda))
    if args.classes:
        _write_file(args.classes, json.dumps(_class_table(mn), indent=2))
    if args.dot:
        _write_file(args.dot, hda_to_dot(mn.hda))
    ess = [c for c in mn.cells.values() if c.essential]
    dims: dict[int, int] = {}
    for c in ess:
        dims[len(c.loset)] = dims.get(len(c.loset), 0) + 1
    summary = {
        "cells": len(mn.cells),
        "essential": len(ess),
        "essential_by_dim": {str(k): v for k, v in sorted(dims.items())},
        "subsidiary": sum(1 for c in mn.cells.values() if c.kind == mn_mod.SUBSIDIARY),
    }
    _emit(
        summary,
        args.json,
        [
            f"{summary['cells']} cells, {summary['essential']} essential "
            f"({', '.join(f'dim {k}: {v}' for k, v in sorted(dims.items()))}), "
            f"{summary['subsidiary']} subsidiary"
        ],
    )
    return 0


def _class_table(mn) -> dict:
    return {
        "start": sorted(mn.hda.start),
        "accept": sorted(mn.hda.accept),
        "cells": {
            cid: {
                "kind": c.kind,
                "loset": list(c.loset),
                "essential": c.essential,
                "representative": None
                if c.representative is None
                else ipomset_to_json(c.representative),
                "representative_text": None
                if c.representative is None
                else ipomset_to_text(c.representative),
                "quotient": [ipomset_to_json(q) for q in c.quotient],
            }
            for cid, c in mn.cells.items()
        },
    }


def cmd_mn_verify(args) -> int:
    lang = _read_lang(args.input, args.alphabet)
    mn = mn_mod.build_mn(lang)
    rep = mn_mod.verify_mn(lang, mn)
    _emit(
        {
            "ok": rep.ok,
            "language_ok": rep.language_ok,
            "essential_ok": rep.essential_ok,
            "valid_ok": rep.valid_ok,
            "missing": [ipomset_to_text(m) for m in rep.missing],
            "extra": [ipomset_to_text(m) for m in rep.extra],
            "essential_diff": list(rep.essential_diff),
        },
        args.json,
        [
            "verified" if rep.ok else "verification failed",
            f"  language: {'ok' if rep.language_ok else 'FAIL'}",
            f"  essential cells: {'ok' if rep.essential_ok else 'FAIL'}",
            f"  precubical identities: {'ok' if rep.valid_ok else 'FAIL'}",
        ],
    )
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    records = parse_log(_read_file(args.input))
    p = ingest_log(records, TIE_BREAKS[args.order])
    if args.json:
        print(json.dumps(ipomset_to_json(p), indent=2, sort_keys=True))
    else:
        print(ipomset_to_block(p, "ingested"))
        print(ipomset_to_text(p))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; ``parse_args`` returns a fresh namespace each time."""
    top = argparse.ArgumentParser(
        prog="hdalib",
        description="ipomsets, higher-dimensional automata, and their languages",
    )
    sub = top.add_subparsers(dest="group", required=True)

    def add(parent, name, fn, **kw):
        p = parent.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    ipo = top_group(sub, "ipo", "ipomset algebra")
    p = add(ipo, "canon", cmd_ipo_canon, help="canonicalize a block or expression")
    p.add_argument("input")
    p.add_argument("--name", default="P")
    p = add(ipo, "glue", cmd_ipo_glue, help="serial composition")
    p.add_argument("left")
    p.add_argument("right")
    p = add(ipo, "subsume", cmd_ipo_subsume, help="decide P ⊑ Q")
    p.add_argument("left")
    p.add_argument("right")
    p = add(ipo, "decompose", cmd_ipo_decompose, help="sparse step decomposition")
    p.add_argument("input")
    p = add(ipo, "refine", cmd_ipo_refine, help="all refinements")
    p.add_argument("input")
    p = add(ipo, "divide", cmd_ipo_divide, help="all gluing divisions")
    p.add_argument("input")

    hd = top_group(sub, "hda", "higher-dimensional automata")
    p = add(hd, "validate", cmd_hda_validate, help="face typing and identities")
    p.add_argument("input")
    p = add(hd, "lang", cmd_hda_lang, help="bounded language enumeration")
    p.add_argument("input")
    p.add_argument("--max-steps", type=int)
    p = add(hd, "member", cmd_hda_member, help="membership with witness path")
    p.add_argument("input")
    p.add_argument("ipomset", nargs="?")
    p.add_argument("--expr")
    p = add(hd, "ess", cmd_hda_ess, help="accessible/coaccessible/essential cells")
    p.add_argument("input")
    p = add(hd, "det", cmd_hda_det, help="determinism check")
    p.add_argument("input")

    lg = top_group(sub, "lang", "finite down-closed languages")
    p = add(lg, "quotient", cmd_lang_quotient, help="prefix or suffix quotient")
    p.add_argument("input")
    p.add_argument("--prefix")
    p.add_argument("--suffix")
    p.add_argument("--alphabet")
    p = add(lg, "swapinv", cmd_lang_swapinv, help="swap-invariance with witnesses")
    p.add_argument("input")
    p.add_argument("--alphabet")
    p = add(lg, "suff", cmd_lang_suff, help="the family of prefix quotients")
    p.add_argument("input")
    p.add_argument("--alphabet")

    mn = top_group(sub, "mn", "Myhill-Nerode construction")
    p = add(mn, "build", cmd_mn_build, help="build the quotient automaton")
    p.add_argument("input")
    p.add_argument("-o", "--out")
    p.add_argument("--classes")
    p.add_argument("--dot")
    p.add_argument("--alphabet")
    p = add(mn, "verify", cmd_mn_verify, help="round-trip verification")
    p.add_argument("input")
    p.add_argument("--alphabet")

    p = add(sub, "ingest", cmd_ingest, help="interval log to canonical ipomset")
    p.add_argument("input")
    p.add_argument("--order", choices=sorted(TIE_BREAKS), default="begin")
    return top


def top_group(sub, name, help_text):
    g = sub.add_parser(name, help=help_text)
    inner = g.add_subparsers(dest="command", required=True)
    return inner


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except HdalibError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (``| head``): end quietly, and point the
        # process's stdout at devnull so the flush at exit cannot fail again
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
