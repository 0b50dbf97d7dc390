"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hdalib"


def test_no_assert_statements():
    # asserts vanish under ``python -O``; checks must raise HdalibError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found


def test_relations_read_only_through_accessors():
    # the row-mask encoding of prec and evord is private to ipomset.py;
    # everything else reads relations through Ipomset.lt and Ipomset.ev
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ipomset.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in ("prec", "evord")
    ]
    assert SRC.is_dir() and not found
