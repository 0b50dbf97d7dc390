"""Seeded random ipomsets and languages, shared by the tests and
``scripts/determinism_experiment.py``.  Each function draws from the
``random.Random`` it is given, so a seed fixes the whole stream."""

from __future__ import annotations

from hdalib.ipomset import canonicalize, glue, identity, starter, terminator
from hdalib.language import language


def random_ipomset(rng, labels="abcd", max_events=5, max_interface=2, steps=4):
    """A random ipomset assembled from a random step sequence."""
    init = tuple(rng.choice(labels) for _ in range(rng.randint(0, max_interface)))
    p = identity(init)
    total = len(init)
    for _ in range(rng.randint(0, steps)):
        cur = p.target_loset()
        if cur and rng.random() < 0.5:
            pos = rng.sample(range(len(cur)), rng.randint(1, len(cur)))
            p = glue(p, terminator(cur, pos))
        elif total < max_events:
            k = rng.randint(1, min(2, max_events - total))
            pos = rng.sample(range(len(cur) + k), k)
            lab = list(cur)
            for q in sorted(pos):
                lab.insert(q, rng.choice(labels))
            p = glue(p, starter(tuple(lab), pos))
            total += k
    if p.target and rng.random() < 0.6:
        cur = p.target_loset()
        p = glue(p, terminator(cur, rng.sample(range(len(cur)), rng.randint(1, len(cur)))))
    return p


def random_word(rng, labels="abcd", max_len=4):
    n = rng.randint(1, max_len)
    s = [rng.choice(labels) for _ in range(n)]
    return canonicalize(s, prec=[(i, j) for i in range(n) for j in range(n) if i < j])


def random_language(rng, labels="abcd", max_members=80):
    """A random finite down-closed language, biased to mix words, parallel
    pairs, and step-built ipomsets."""
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.3:
                gens.append(random_word(rng, labels))
            elif r < 0.55:
                a, b = rng.choice(labels), rng.choice(labels)
                gens.append(canonicalize([a, b], evord=[(0, 1)]))
            else:
                gens.append(random_ipomset(rng, labels, max_events=4))
        lang = language(gens)
        if len(lang) <= max_members:
            return lang
