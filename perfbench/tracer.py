"""Spans around the public functions of hdalib, for the traced run.

The tracer binds a wrapper to every ``hdalib`` module's name for each
function in ``TARGETS``, so calls between hdalib modules go through it as
well as the benchmark's own calls.  It depends on public names only.  Spans
stay in memory; ``write`` saves them when the round ends.

A span is ``[name, parent, item, start, end, extra]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``item`` the index of the item
being timed (-1 during set-up) and ``extra`` what ``EXTRA`` keeps of the
call's arguments and result.  Outside set-up and items (while outputs are
checked) the wrappers record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

TARGETS = {
    "ipomset": (
        "canonicalize",
        "glue",
        "subsumes",
        "refinements",
        "enumerate_divisions",
        "sparse_decomposition",
    ),
    "language": ("language", "is_swap_invariant", "class_key"),
    "myhill_nerode": ("build_mn", "verify_mn"),
    "hda": (
        "accepting_paths",
        "ev_of_path",
        "member",
        "is_deterministic",
        "validate",
        "essential_report",
    ),
    "formats": ("parse_hda", "parse_lang"),
    "cli": ("main",),
}

# what a span keeps besides its times, as a tuple of numbers to be summed
EXTRA = {
    "ipomset.subsumes": lambda args, out: (int(out),),
    "ipomset.refinements": lambda args, out: (len(out),),
    "ipomset.enumerate_divisions": lambda args, out: (len(out), 3 ** args[0].n),
    "language.language": lambda args, out: (len(out),),
    "myhill_nerode.build_mn": lambda args, out: (len(out.cells),),
    "hda.accepting_paths": lambda args, out: (len(out),),
}

# (name, unit, better) of every per-layer metric the traced run prints
PER_LAYER = (
    ("ipomset.canonicalize.calls", "count", "lower"),
    ("ipomset.canonicalize.self_s", "s", "lower"),
    ("ipomset.glue.calls", "count", "lower"),
    ("ipomset.glue.self_s", "s", "lower"),
    ("ipomset.subsumes.calls", "count", "lower"),
    ("ipomset.subsumes.s", "s", "lower"),
    ("ipomset.subsumes.true_ratio", "ratio", "higher"),
    ("ipomset.refinements.calls", "count", "lower"),
    ("ipomset.refinements.s", "s", "lower"),
    ("ipomset.refinements.results", "count", "higher"),
    ("ipomset.enumerate_divisions.calls", "count", "lower"),
    ("ipomset.enumerate_divisions.s", "s", "lower"),
    ("ipomset.enumerate_divisions.kept", "count", "higher"),
    ("ipomset.enumerate_divisions.kept_ratio", "ratio", "higher"),
    ("ipomset.sparse_decomposition.calls", "count", "lower"),
    ("ipomset.sparse_decomposition.s", "s", "lower"),
    ("language.language.s", "s", "lower"),
    ("language.members", "count", "higher"),
    ("language.prefixes", "count", "higher"),
    ("language.is_swap_invariant.s", "s", "lower"),
    ("language.is_swap_invariant.pairs", "count", "lower"),
    ("language.class_key.calls", "count", "lower"),
    ("language.class_key.s", "s", "lower"),
    ("myhill_nerode.build_mn.s", "s", "lower"),
    ("myhill_nerode.build_mn.cells", "count", "higher"),
    ("myhill_nerode.verify_mn.s", "s", "lower"),
    ("hda.accepting_paths.calls", "count", "lower"),
    ("hda.accepting_paths.s", "s", "lower"),
    ("hda.accepting_paths.paths", "count", "higher"),
    ("hda.ev_of_path.calls", "count", "lower"),
    ("hda.ev_of_path.self_s", "s", "lower"),
    ("hda.member.calls", "count", "lower"),
    ("hda.member.s", "s", "lower"),
    ("hda.is_deterministic.s", "s", "lower"),
    ("hda.validate.s", "s", "lower"),
    ("hda.essential_report.s", "s", "lower"),
    ("formats.parse_hda.s", "s", "lower"),
    ("formats.parse_lang.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.counts_repeat", "flag", "higher"),
)

# formats.* are set-up work, so their spans count in set-up as well
SETUP_LAYERS = ("formats.",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None  # None: record nothing; -1: set-up; i >= 0: item i

    def install(self) -> None:
        """Bind a recording wrapper to every hdalib module's name for each
        target function.  Import every hdalib module first."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "hdalib" or n.startswith("hdalib.")
        ]
        for mod_name, names in TARGETS.items():
            origin = importlib.import_module(f"hdalib.{mod_name}")
            for fname in names:
                fn = getattr(origin, fname)
                key = f"{mod_name}.{fname}"
                traced = self._wrap(key, fn, EXTRA.get(key))
                for mod in modules:
                    if getattr(mod, fname, None) is fn:
                        setattr(mod, fname, traced)

    def _wrap(self, key, fn, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = [key, stack[-1] if stack else -1, self.item, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out

        return traced

    def layers(self) -> dict:
        """Per function: calls, inclusive seconds (outermost call of that
        name only), self seconds and the summed extras, over item spans
        (and set-up spans for the set-up layers); for the swap check also
        ``pairs``, the subsumes calls made inside it."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                covered[s[1]] += s[4] - s[3]
        out: dict = {}
        pairs = 0
        for i, (key, _parent, item, t0, t1, extra) in enumerate(spans):
            if item < 0 and not key.startswith(SETUP_LAYERS):
                continue
            a = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": None})
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - covered[i]
            if not self._inside(i, key):
                a["s"] += t1 - t0
            if extra is not None:
                a["extra"] = [x + y for x, y in zip(a["extra"] or [0] * len(extra), extra)]
            if key == "ipomset.subsumes" and self._inside(i, "language.is_swap_invariant"):
                pairs += 1
        out.setdefault("language.is_swap_invariant", {})["pairs"] = pairs
        return out

    def _inside(self, i: int, key: str) -> bool:
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] == key:
                return True
            p = self.spans[p][1]
        return False

    def write(self, path, items: list[str]) -> None:
        """Save every span, times in microseconds from the first start,
        with the names of the items the ``item`` column indexes."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "items": items,
                    "columns": ["name", "parent", "item", "start_us", "end_us", "extra"],
                    "spans": [
                        [k, p, it, round((t0 - base) * 1e6), round((t1 - base) * 1e6), ex]
                        for k, p, it, t0, t1, ex in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def per_layer_metrics(layers: dict, stats: dict) -> dict:
    """The ``PER_LAYER`` metrics that one traced round yields; the
    ``trace.*`` ones compare rounds and are added by the caller."""

    def get(key, field):
        return layers.get(key, {}).get(field, 0)

    def ext(key, k=0):
        return (layers.get(key, {}).get("extra") or (0, 0))[k]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "ipomset.subsumes.true_ratio": ratio(
            ext("ipomset.subsumes"), get("ipomset.subsumes", "calls")
        ),
        "ipomset.refinements.results": ext("ipomset.refinements"),
        "ipomset.enumerate_divisions.kept": ext("ipomset.enumerate_divisions"),
        "ipomset.enumerate_divisions.kept_ratio": ratio(
            ext("ipomset.enumerate_divisions"), ext("ipomset.enumerate_divisions", 1)
        ),
        "language.members": ext("language.language"),
        "language.prefixes": stats.get("language.prefixes", 0),
        "myhill_nerode.build_mn.cells": ext("myhill_nerode.build_mn"),
        "hda.accepting_paths.paths": ext("hda.accepting_paths"),
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name.startswith("trace."):
            continue
        layer, field = name.rsplit(".", 1)
        out[name] = derived[name] if name in derived else get(layer, field)
    return out
