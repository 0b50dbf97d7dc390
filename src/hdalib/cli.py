"""Command-line front end.

Exit codes: 0 for a true verdict or successful computation, 1 for a false
verdict or counterexample, 2 for errors (parse failures, axiom violations,
interface mismatches).  ``--json`` switches any command to a
machine-readable value on stdout.  The HDALIB_MAX_STEPS environment
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
from collections import Counter
from pathlib import Path

from . import hda as hda_mod
from . import language as lang_mod
from . import myhill_nerode as mn_mod
from .errors import HdalibError, ParseError
from .formats import (
    class_table,
    hda_to_dot,
    hda_to_text,
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
    from_intervals,
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


def _read_lang(arg: str):
    return parse_lang(_read_file(arg))


def _read_hda(arg: str):
    return parse_hda(_read_file(arg))


class _UsageError(Exception):
    """A misuse of a command that argparse cannot see; ``main`` prints it
    as ``error: <message>`` and exits with code 2."""


def _listed(q, as_json: bool) -> list:
    """The members of ``q`` in canonical order, as JSON objects or text."""
    show = ipomset_to_json if as_json else ipomset_to_text
    return [show(m) for m in sorted_ipomsets(q)]


def _set_text(q) -> str:
    return "{" + ", ".join(_listed(q, False)) + "}"


# ---------------------------------------------------------------------------
# Commands.  Each returns ``(exit_code, out)``: the JSON value under
# ``--json``, else the lines of text; it builds only the form it returns.


def cmd_ipo_canon(args):
    p = _read_ipomset(args.input)
    if args.json:
        return 0, ipomset_to_json(p)
    return 0, [ipomset_to_block(p, args.name), ipomset_to_text(p)]


def cmd_ipo_glue(args):
    p = glue(_read_ipomset(args.left), _read_ipomset(args.right))
    return 0, ipomset_to_json(p) if args.json else [ipomset_to_text(p)]


def cmd_ipo_subsume(args):
    w = subsumes_witness(_read_ipomset(args.left), _read_ipomset(args.right))
    code = 0 if w is not None else 1
    if args.json:
        # the witness is a tuple or None: JSON writes [] for the empty one
        return code, {"subsumes": w is not None, "bijection": w}
    if w is None:
        return code, ["no subsumption"]
    pairs = " ".join(f"{i}->{j}" for i, j in enumerate(w)) or "the empty bijection"
    return code, ["subsumes via " + pairs]


def cmd_ipo_decompose(args):
    seq = sparse_decomposition(_read_ipomset(args.input))
    if args.json:
        steps = [
            {"kind": s.kind, "loset": list(s.loset), "active": sorted(s.active)}
            for s in seq.steps
        ]
        return 0, {"initial": list(seq.initial_loset), "steps": steps}
    initial = "initial: " + (" ".join(seq.initial_loset) or "(empty)")
    return 0, [initial] + [f"  {s!r}" for s in seq.steps]


def cmd_ipo_refine(args):
    return 0, _listed(refinements(_read_ipomset(args.input)), args.json)


def cmd_ipo_divide(args):
    divs = enumerate_divisions(_read_ipomset(args.input))
    pairs = sorted(divs, key=lambda t: (t[0].sort_key(), t[1].sort_key()))
    if args.json:
        return 0, [[ipomset_to_json(a), ipomset_to_json(b)] for a, b in pairs]
    return 0, [f"({ipomset_to_text(a)} , {ipomset_to_text(b)})" for a, b in pairs]


def cmd_hda_validate(args):
    rep = hda_mod.validate(_read_hda(args.input))
    code = 0 if rep.ok else 1
    if args.json:
        return code, {"valid": rep.ok, "problems": list(rep.problems)}
    return code, ["valid"] if rep.ok else list(rep.problems)


def cmd_hda_lang(args):
    bound = _default_max_steps() if args.max_steps is None else args.max_steps
    if bound < 1:
        raise ParseError(f"--max-steps must be a positive integer, got {bound}")
    members = hda_mod.enumerate_language(_read_hda(args.input), bound)
    return 0, _listed(members, args.json)


def cmd_hda_member(args):
    if (args.expr is None) == (args.ipomset is None):
        raise _UsageError("give an ipomset file or --expr")
    x = _read_hda(args.input)
    if args.expr is not None:
        p = parse_ipomset_text(args.expr)
    else:
        p = _read_ipomset(args.ipomset)
    path = hda_mod.member(x, p)
    code = 0 if path is not None else 1
    if not args.json:
        return code, ["no accepting path" if path is None else f"witness: {path!r}"]
    if path is None:
        return code, {"member": False, "path": None}
    steps = [{"kind": s.kind, "positions": sorted(s.positions)} for s in path.steps]
    return code, {"member": True, "path": {"cells": list(path.cells), "steps": steps}}


def cmd_hda_ess(args):
    rep = hda_mod.essential_report(_read_hda(args.input))
    parts = {
        "accessible": sorted(rep.accessible),
        "coaccessible": sorted(rep.coaccessible),
        "essential": sorted(rep.essential),
    }
    if args.json:
        return 0, parts
    return 0, [f"{k}:".ljust(14) + " ".join(v) for k, v in parts.items()]


def cmd_hda_det(args):
    rep = hda_mod.is_deterministic(_read_hda(args.input))
    code = 0 if rep.deterministic else 1
    if args.json:
        return code, {
            "deterministic": rep.deterministic,
            "start_clashes": [list(l) for l in rep.start_clashes],
            "branch_clashes": [
                {"base": base, "positions": [p + 1 for p in pos], "cells": [a, b]}
                for base, pos, a, b in rep.branch_clashes
            ],
        }
    lines = ["deterministic" if rep.deterministic else "nondeterministic"]
    for loset in rep.start_clashes:
        lines.append(f"  several start cells of type [{' '.join(loset)}]")
    for base, pos, a, b in rep.branch_clashes:
        lines.append(f"  cells {a} and {b} share lower face {base} at positions "
                     + ",".join(str(p + 1) for p in pos))
    return code, lines


def cmd_lang_quotient(args):
    if (args.prefix is None) == (args.suffix is None):
        raise _UsageError("give exactly one of --prefix or --suffix")
    lang = _read_lang(args.input)
    if args.prefix is not None:
        q = lang_mod.prefix_quotient(lang, parse_ipomset_text(args.prefix))
    else:
        q = lang_mod.suffix_quotient(lang, parse_ipomset_text(args.suffix))
    return 0, _listed(q, True) if args.json else [_set_text(q)]


def cmd_lang_swapinv(args):
    lang = _read_lang(args.input)
    res = lang_mod.is_swap_invariant(lang)
    code = 0 if res.invariant else 1
    pairs = [
        (p, q, lang_mod.prefix_quotient(lang, p), lang_mod.prefix_quotient(lang, q))
        for p, q in res.violations
    ]
    if args.json:
        violations = [
            {
                "refined": ipomset_to_json(p),
                "subsuming": ipomset_to_json(q),
                "refined_quotient": _listed(qp, True),
                "subsuming_quotient": _listed(qq, True),
            }
            for p, q, qp, qq in pairs
        ]
        return code, {"swap_invariant": res.invariant, "violations": violations}
    if res.invariant:
        return code, ["swap-invariant"]
    return code, ["not swap-invariant"] + [
        f"  {ipomset_to_text(p)} ⊑ {ipomset_to_text(q)} "
        f"but {_set_text(qp)} != {_set_text(qq)}"
        for p, q, qp, qq in pairs
    ]


def cmd_lang_suff(args):
    fam = lang_mod.suffix_quotient_family(_read_lang(args.input))
    if args.json:
        return 0, [
            {
                "representative": None if rep is None else ipomset_to_json(rep),
                "quotient": _listed(val, True),
            }
            for rep, val in fam
        ]
    return 0, [f"{len(fam)} distinct quotients"] + [
        f"  {'(non-prefix)' if rep is None else ipomset_to_text(rep)}: {_set_text(val)}"
        for rep, val in fam
    ]


def cmd_mn_build(args):
    mn = mn_mod.build_mn(_read_lang(args.input))
    if args.out:
        _write_file(args.out, hda_to_text(mn.hda))
    if args.classes:
        _write_file(args.classes, json.dumps(class_table(mn), indent=2))
    if args.dot:
        _write_file(args.dot, hda_to_dot(mn.hda))
    dims = Counter(len(c.loset) for c in mn.cells.values() if c.essential)
    dims = dict(sorted(dims.items()))
    essential = sum(dims.values())
    subsidiary = sum(c.kind == mn_mod.SUBSIDIARY for c in mn.cells.values())
    if args.json:
        return 0, {
            "cells": len(mn.cells),
            "essential": essential,
            "essential_by_dim": {str(k): v for k, v in dims.items()},
            "subsidiary": subsidiary,
        }
    by_dim = ", ".join(f"dim {k}: {v}" for k, v in dims.items())
    return 0, [
        f"{len(mn.cells)} cells, {essential} essential ({by_dim}), "
        f"{subsidiary} subsidiary"
    ]


def cmd_mn_verify(args):
    lang = _read_lang(args.input)
    rep = mn_mod.verify_mn(lang, mn_mod.build_mn(lang))
    code = 0 if rep.ok else 1
    if args.json:
        return code, {
            "ok": rep.ok,
            "language_ok": rep.language_ok,
            "essential_ok": rep.essential_ok,
            "valid_ok": rep.valid_ok,
            "missing": [ipomset_to_text(m) for m in rep.missing],
            "extra": [ipomset_to_text(m) for m in rep.extra],
            "essential_diff": list(rep.essential_diff),
        }
    ok = {True: "ok", False: "FAIL"}
    return code, [
        "verified" if rep.ok else "verification failed",
        f"  language: {ok[rep.language_ok]}",
        f"  essential cells: {ok[rep.essential_ok]}",
        f"  precubical identities: {ok[rep.valid_ok]}",
    ]


def cmd_ingest(args):
    rows = parse_log(_read_file(args.input))
    if args.order == "begin":
        # a stable sort: concurrent events rank by begin, then input order
        rows = sorted(rows, key=lambda r: r.begin)
    p = from_intervals(rows)
    if args.json:
        return 0, ipomset_to_json(p)
    return 0, [ipomset_to_block(p, "ingested"), ipomset_to_text(p)]


# ---------------------------------------------------------------------------
# The command table


def _arg(*flags, **kw):
    return flags, kw


_INPUT = _arg("input")

GROUPS = {
    "ipo": "ipomset algebra",
    "hda": "higher-dimensional automata",
    "lang": "finite down-closed languages",
    "mn": "Myhill-Nerode construction",
}

# the keyword arguments of json.dumps for the two JSON styles
_COMPACT = {}
_PRETTY = {"indent": 2, "sort_keys": True}

# (group, or None for a top-level verb; name; function; help; JSON style;
# arguments)
COMMANDS = (
    ("ipo", "canon", cmd_ipo_canon, "canonicalize a block or expression", _PRETTY,
     [_INPUT, _arg("--name", default="P")]),
    ("ipo", "glue", cmd_ipo_glue, "serial composition", _PRETTY,
     [_arg("left"), _arg("right")]),
    ("ipo", "subsume", cmd_ipo_subsume, "decide P ⊑ Q", _COMPACT,
     [_arg("left"), _arg("right")]),
    ("ipo", "decompose", cmd_ipo_decompose, "sparse step decomposition", _COMPACT,
     [_INPUT]),
    ("ipo", "refine", cmd_ipo_refine, "all refinements", _PRETTY, [_INPUT]),
    ("ipo", "divide", cmd_ipo_divide, "all gluing divisions", _PRETTY, [_INPUT]),
    ("hda", "validate", cmd_hda_validate, "face typing and identities", _PRETTY,
     [_INPUT]),
    ("hda", "lang", cmd_hda_lang, "bounded language enumeration", _PRETTY,
     [_INPUT, _arg("--max-steps", type=int)]),
    ("hda", "member", cmd_hda_member, "membership with witness path", _COMPACT,
     [_INPUT, _arg("ipomset", nargs="?"), _arg("--expr")]),
    ("hda", "ess", cmd_hda_ess, "accessible/coaccessible/essential cells", _PRETTY,
     [_INPUT]),
    ("hda", "det", cmd_hda_det, "determinism check", _PRETTY, [_INPUT]),
    ("lang", "quotient", cmd_lang_quotient, "prefix or suffix quotient", _PRETTY,
     [_INPUT, _arg("--prefix"), _arg("--suffix")]),
    ("lang", "swapinv", cmd_lang_swapinv, "swap-invariance with witnesses", _COMPACT,
     [_INPUT]),
    ("lang", "suff", cmd_lang_suff, "the family of prefix quotients", _PRETTY,
     [_INPUT]),
    ("mn", "build", cmd_mn_build, "build the quotient automaton", _PRETTY,
     [_INPUT, _arg("-o", "--out"), _arg("--classes"), _arg("--dot")]),
    ("mn", "verify", cmd_mn_verify, "round-trip verification", _PRETTY, [_INPUT]),
    (None, "ingest", cmd_ingest, "interval log to canonical ipomset", _PRETTY,
     [_INPUT, _arg("--order", choices=("begin", "input"), default="begin")]),
)


@functools.cache
def make_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser, and each command's parser by the words that
    name it (``("hda", "member")``, ``("ingest",)``), built once per
    process; ``parse_args`` returns a fresh namespace each time."""
    top = argparse.ArgumentParser(
        prog="hdalib",
        description="ipomsets, higher-dimensional automata, and their languages",
    )
    sub = top.add_subparsers(dest="group", required=True)
    groups = {None: sub}
    commands = {}
    for group, name, fn, help_text, style, arguments in COMMANDS:
        if group not in groups:
            g = sub.add_parser(group, help=GROUPS[group])
            groups[group] = g.add_subparsers(dest="command", required=True)
        p = groups[group].add_parser(name, help=help_text)
        commands[(group, name) if group else (name,)] = p
        p.set_defaults(fn=fn, style=style)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
    return top, commands


def main(argv=None) -> int:
    top, commands = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in commands), ())
    # a named command's parser, called as the top one would call it, or
    # the top one itself; both report what is left over as parse_args does
    args, extra = commands.get(words, top).parse_known_args(argv[len(words) :])
    if extra:
        top.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code, out = args.fn(args)
        if args.json:
            print(json.dumps(out, **args.style))
        else:
            for line in out:
                print(line)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
