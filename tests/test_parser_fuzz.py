"""Fuzzing the parsers: on any text over the grammar's characters and
keywords, or any mutation of a data file, a text parser returns a value or
raises an HdalibError, and the CLI ends with exit code 0 or 2; so does
ipomset_from_json on any JSON-shaped object."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdalib import cli
from hdalib.errors import HdalibError
from hdalib.formats import (
    LOG_HEADER,
    ipomset_from_json,
    ipomset_to_text,
    parse_expr,
    parse_hda,
    parse_ipomset_block,
    parse_ipomset_text,
    parse_lang,
    parse_log,
)
from hdalib.ipomset import from_intervals

DATA = Path(__file__).resolve().parent.parent / "data"


def data_texts(suffix):
    return [p.read_text() for p in sorted(DATA.glob("*" + suffix))]


def uncommented(text):
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


# the member lines of the .lang files
EXPRESSIONS = [
    line
    for text in data_texts(".lang")
    for line in uncommented(text).split("members:", 1)[1].split()
]
BLOCKS = [uncommented(text).strip() for text in data_texts(".ipo")]

TOKENS = (
    # keywords of the block, .lang, .hda and log formats
    "ipomset", "hda", "cell", "events", "source", "target", "prec", "evord",
    "start", "accept", "alphabet", "closed", "members", "true", "false", "yes",
    "eps", "d0", "d1", ",".join(LOG_HEADER),
    # punctuation, bullets and labels
    "ε", "•", ".", "|", "[", "]", "{", "}", "(", ")", ":", ";", ",", "<", "=",
    "#", "-", "/", " ", "\n", "\t", "a", "b", "c", "e0", "e1", "0", "1", "2",
    "0.5", "1/0", "99",
)

FUZZ = settings(max_examples=200, deadline=None)


def token_texts():
    return st.lists(st.sampled_from(TOKENS), max_size=30).map("".join)


@st.composite
def mutated(draw, seeds):
    """One of the seed texts with a few slices deleted, replaced, repeated,
    or tokens inserted."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        token = draw(st.sampled_from(TOKENS))
        op = draw(st.sampled_from(("delete", "insert", "replace", "repeat")))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "replace":
            text = text[:i] + token + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def texts(seeds):
    return st.one_of(token_texts(), mutated(seeds))


PARSERS = [
    (parse_expr, EXPRESSIONS),
    (parse_ipomset_block, BLOCKS),
    (parse_ipomset_text, data_texts(".ipo") + EXPRESSIONS),
    (parse_lang, data_texts(".lang")),
    (parse_hda, data_texts(".hda")),
    (parse_log, data_texts(".csv")),
]


@pytest.mark.parametrize(
    "parse,seeds", PARSERS, ids=[parse.__name__ for parse, _ in PARSERS]
)
@FUZZ
@given(data=st.data())
def test_parser_raises_only_hdalib_errors(parse, seeds, data):
    text = data.draw(texts(seeds))
    try:
        parse(text)
    except HdalibError:
        pass


# word characters, and characters that some format reads as syntax
LABEL_CHARS = "ab0_é|]\"•.,:< "


def _label_texts(labels, chain):
    """Block, JSON, log and shorthand inputs of the labels in event order,
    as a chain or pairwise concurrent."""
    n = len(labels)
    pairs = " ".join(f"e{i}<e{i + 1}" for i in range(n - 1))
    events = ", ".join(f"e{i}:{lab}" for i, lab in enumerate(labels))
    block = f"ipomset P {{ events: {events}; {'prec' if chain else 'evord'}: {pairs} }}"
    closed = [[i, i + 1] for i in range(n - 1)]
    obj = {"labels": labels, "prec" if chain else "evord": closed}
    spans = [(i, i + 0.5) if chain else (0, 1) for i in range(n)]
    log = "\n".join(
        [",".join(LOG_HEADER)]
        + [f"e{i},{lab},{b},{e},no,no" for i, (lab, (b, e)) in enumerate(zip(labels, spans))]
    )
    expr = ("" if chain else "|").join(labels)
    return [
        lambda: parse_ipomset_text(block),
        lambda: ipomset_from_json(obj),
        lambda: from_intervals(parse_log(log)),
        lambda: parse_expr(f"[{expr}]"),
    ]


@FUZZ
@given(
    labels=st.lists(st.text(LABEL_CHARS, max_size=2), min_size=1, max_size=3),
    chain=st.booleans(),
)
@example(labels=["e", "p", "s"], chain=True)
@example(labels=["ε"], chain=True)
def test_every_ipomset_read_prints_and_reads_back(labels, chain):
    for read in _label_texts(labels, chain):
        try:
            p = read()
        except HdalibError:
            continue
        assert parse_ipomset_text(ipomset_to_text(p)) == p


@FUZZ
@given(text=texts(data_texts(".ipo") + EXPRESSIONS))
def test_cli_canon_exits_0_or_2(text):
    assume(not text.startswith("-"))  # argparse would read an option
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["ipo", "canon", text]) in (0, 2)


# JSON-shaped values, and objects whose fields are well formed or not
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(-1, 3) | st.text("ab0", max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=10,
)
INDICES = st.lists(st.integers(-1, 3), max_size=3)
PAIRS = st.lists(st.lists(st.integers(-1, 3), min_size=2, max_size=2), max_size=4)
OPTIONAL = {"source": INDICES, "target": INDICES, "prec": PAIRS, "evord": PAIRS}
JSON_OBJECTS = JSON_VALUES | st.fixed_dictionaries(
    {"labels": st.lists(st.sampled_from("ab"), max_size=4) | JSON_VALUES},
    optional={key: field | JSON_VALUES for key, field in OPTIONAL.items()},
)


@FUZZ
@given(obj=JSON_OBJECTS)
def test_ipomset_from_json_raises_only_hdalib_errors(obj):
    try:
        ipomset_from_json(obj)
    except HdalibError:
        pass
