#!/usr/bin/env python3
"""Random-language experiment: swap-invariance versus determinism.

Samples finite down-closed languages, builds the Myhill-Nerode automaton
of each, and tallies agreement between the language-side swap-invariance
check and the automaton-side determinism check, plus the round-trip
verification.  Disagreement on any sample is a bug.
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hdalib.hda import is_deterministic
from hdalib.language import is_swap_invariant
from hdalib.myhill_nerode import build_mn, verify_mn
from random_gen import random_language


def positive(text: str) -> int:
    """An argparse type: an int of at least 1, so that no run passes
    vacuously on zero samples."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=positive, default=100)
    ap.add_argument("--seed", type=int, default=20260808)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    t0 = time.time()
    agree = invariant = verified = 0
    for i in range(args.samples):
        lang = random_language(rng)
        sw = bool(is_swap_invariant(lang))
        mn = build_mn(lang)
        det = bool(is_deterministic(mn.hda).deterministic)
        ok = verify_mn(lang, mn).ok
        agree += sw == det
        invariant += sw
        verified += ok
        if sw != det or not ok:
            print(f"sample {i}: swap-invariant={sw} deterministic={det} verified={ok}")
            for m in sorted(lang.members, key=lambda m: m.sort_key()):
                print(f"  member {m!r}")
    dt = time.time() - t0
    print(
        f"{args.samples} languages: {agree} agree on determinism "
        f"({invariant} swap-invariant), {verified} verified, {dt:.1f}s"
    )
    return 0 if agree == args.samples == verified else 1


if __name__ == "__main__":
    sys.exit(main())
