#!/usr/bin/env python3
"""Walk through the library's worked examples and emit their artifacts.

Builds the shipped data objects, prints decompositions, quotient tables,
and Myhill-Nerode summaries, and writes .hda/.json/.dot outputs to the
chosen directory.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hdalib.formats import (
    class_table,
    hda_to_dot,
    hda_to_text,
    ipomset_to_text,
    parse_hda,
    parse_ipomset_text,
    parse_lang,
)
from hdalib.hda import accepting_paths, enumerate_language, ev_of_path, is_deterministic
from hdalib.ipomset import sorted_ipomsets, sparse_decomposition
from hdalib.language import is_swap_invariant, prefix_quotient, prefixes, suffix_quotient_family
from hdalib.myhill_nerode import build_mn, verify_mn

DATA = Path(__file__).resolve().parent.parent / "data"


def show_set(xs):
    return "{" + ", ".join(ipomset_to_text(m) for m in sorted_ipomsets(xs)) + "}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="artifact output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("== sparse decomposition of the n-shape ipomset ==")
    n_shape = parse_ipomset_text((DATA / "n_shape.ipo").read_text())
    seq = sparse_decomposition(n_shape)
    print(f"  initial loset: {' '.join(seq.initial_loset) or '(empty)'}")
    for step in seq.steps:
        print(f"  {step!r}")
    print(f"  recomposes: {seq.compose() == n_shape}")

    print("\n== the square HDA: paths and language ==")
    square = parse_hda((DATA / "square2d.hda").read_text())
    for p in accepting_paths(square, 8):
        print(f"  {p!r}  ev = {ipomset_to_text(ev_of_path(square, p))}")
    print(f"  language: {show_set(enumerate_language(square, 8))}")

    print("\n== quotients of the [a|b] + abc language ==")
    lang = parse_lang((DATA / "par_ab_abc.lang").read_text())
    for p in sorted_ipomsets(prefixes(lang)):
        print(f"  {ipomset_to_text(p):10} \\L = {show_set(prefix_quotient(lang, p))}")
    print(f"  distinct quotients: {len(suffix_quotient_family(lang))}")
    verdict = is_swap_invariant(lang)
    print(f"  swap-invariant: {verdict.invariant}")
    for a, b in verdict.violations:
        print(f"    witness {ipomset_to_text(a)} ⊑ {ipomset_to_text(b)}")

    for name in ("par_ab_abc", "par_ab_aa", "double_a"):
        print(f"\n== Myhill-Nerode automaton for {name} ==")
        lang = parse_lang((DATA / f"{name}.lang").read_text())
        mn = build_mn(lang)
        det = is_deterministic(mn.hda)
        rep = verify_mn(lang, mn)
        ess = sum(1 for c in mn.cells.values() if c.essential)
        print(f"  {len(mn.cells)} cells, {ess} essential, deterministic={det.deterministic}, verified={rep.ok}")
        (out / f"mn_{name}.hda").write_text(hda_to_text(mn.hda))
        (out / f"mn_{name}.json").write_text(json.dumps(class_table(mn), indent=2))
        (out / f"mn_{name}.dot").write_text(hda_to_dot(mn.hda))
        print(f"  wrote mn_{name}.hda / .json / .dot to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
