"""Checks on the library source itself."""

import ast
import importlib.util
import inspect
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


def test_cli_prints_only_in_main():
    # commands return their output; main is the one renderer that writes it
    tree = ast.parse((SRC / "cli.py").read_text())
    mains = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    inside = {id(node) for m in mains for node in ast.walk(m)}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and id(node) not in inside
    ]
    assert len(mains) == 1 and not found


def test_scripts_import_no_private_hdalib_names():
    # scripts use the library's public interface, as any caller must
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(scripts.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "hdalib"
        and any(
            part.startswith("_")
            for part in node.module.split(".") + [a.name for a in node.names]
        )
    ]
    assert scripts.is_dir() and not found


def _name(node):
    """The name that ``f``, ``m.f``, ``f(...)`` or ``m.f(...)`` refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None)


# the named-tuple helpers that copy or rebuild a value field by field
_TUPLE_BUILDERS = ("_replace", "_make", "_asdict")


def test_ipomsets_built_and_glue_errors_raised_only_in_ipomset():
    # ipomset.py alone makes canonical forms, and raises glue's interface
    # error, so no other module can skip a check or copy the message.
    # Ipomset is a named tuple, so its own builders are kept there too
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ipomset.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and _name(node) == "Ipomset"
        or isinstance(node, ast.Attribute)
        and node.attr in _TUPLE_BUILDERS
        or isinstance(node, ast.Raise)
        and node.exc is not None
        and _name(node.exc) == "InterfaceMismatch"
    ]
    assert SRC.is_dir() and not found


def test_hda_searches_do_not_recurse():
    # a search that recurses once per event or path step runs out of stack
    # on long inputs; every search in the library keeps its own queue or
    # stack.  Only _upper recurses, at most once per target of its face
    found = {
        f"{path.stem}.{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _name(node) == fn.name
    }
    assert found == {"myhill_nerode._upper"}


def test_hda_walks_only_through_bfs():
    # every search in hda.py is one _bfs call, whose queue is a list read
    # while it grows; the one other loop is _path's walk back along the
    # links _bfs records
    tree = ast.parse((SRC / "hda.py").read_text())
    found = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.While) for node in ast.walk(fn))
    }
    assert found == {"_path"}


def test_hda_reads_steps_only_through_reading():
    # the rule that an up step reads the starter on the cell it enters and
    # a down step the terminator on the cell it leaves is written once, in
    # _reading: no other code in hda.py builds a step
    tree = ast.parse((SRC / "hda.py").read_text())
    readers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_reading"]
    inside = {id(node) for fn in readers for node in ast.walk(fn)}
    built = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node) == "StarterTerminator"
    ]
    found = [node.lineno for node in built if id(node) not in inside]
    assert len(readers) == 1 and built and not found


def test_no_nested_function_refers_to_itself():
    # a nested function that calls itself holds itself through a closure
    # cell: each call leaves a reference cycle for the cycle collector.
    # Only ``_upper`` recurses, and it is a module-level function
    found = {
        f"{path.name}:{fn.lineno} {fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for outer in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(outer, (ast.FunctionDef, ast.Lambda))
        for fn in ast.walk(outer)
        if fn is not outer and isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == fn.name for node in ast.walk(fn))
    }
    assert SRC.is_dir() and not found


ROOT = SRC.parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(path: Path, attributes: bool = False) -> set[str]:
    """The names a file refers to outside the function of that name: names,
    attributes, imported names, and string constants, as the benchmark's
    tracer names the functions it wraps.  With ``attributes``, only the
    attributes: the names read after a dot."""
    found = set()
    stack = [(ast.parse(path.read_text(), str(path)), frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        if attributes:
            names = [node.attr] if isinstance(node, ast.Attribute) else []
        else:
            names = [_name(node)]
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and not attributes:
            names.append(node.value)
        if isinstance(node, ast.ImportFrom) and not attributes:
            names += [a.name for a in node.names]
        found.update(n for n in names if n and n not in inside)
        stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return found


def test_every_library_function_has_a_user():
    # a function that only unit tests call is surface nobody uses; the
    # re-exports in __init__.py do not count as a use.  A method is used
    # only through an attribute: a local variable of its name is no use
    library = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users = library + SCRIPTS + PERFBENCH + [ACCEPTANCE]
    used = set().union(*map(_references, users))
    read = set().union(*(_references(path, attributes=True) for path in users))
    trees = [ast.parse(path.read_text(), str(path)) for path in library]
    methods = {
        id(fn)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
    }
    unused = {
        fn.name
        for tree in trees
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in (read if id(fn) in methods else used)
    }
    assert library and not unused, sorted(unused)


def _ipomset_users(name: str) -> set:
    """The functions of ipomset.py that refer to ``name``, as a name or an
    attribute; ``None`` stands for module-level code."""
    users, stack = set(), [(ast.parse((SRC / "ipomset.py").read_text()), None)]
    while stack:
        node, fn = stack.pop()
        if _name(node) == name and isinstance(node, (ast.Name, ast.Attribute)):
            users.add(fn)
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        stack += [(child, fn) for child in ast.iter_child_nodes(node)]
    return users


def test_rows_are_cut_only_by_restrict():
    # _restrict is the one routine that cuts relation rows to a
    # sub-ipomset; glue folds apply_step and moves no rows itself
    assert _ipomset_users("_remap") == {"_restrict"}


def test_set_bits_are_walked_only_by_events():
    # one idiom reads the set bits of a mask: _events, from its table up
    # to width 8 and by a bit_length loop above it
    assert _ipomset_users("bit_length") == {"_events"}


def test_hot_values_are_built_from_lists():
    # on CPython a list comprehension builds a small tuple or set about
    # twice as fast as a generator frame does; any and all keep theirs,
    # because they stop early
    builders = ("tuple", "frozenset", "set", "list", "sorted", "sum")
    found = [
        f"{name}.py:{node.lineno}"
        for name in ("ipomset", "language", "myhill_nerode", "hda")
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in builders
        and len(node.args) == 1
        and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert not found, found


def test_every_exported_function_has_a_user():
    # what hdalib exports is what the CLI, the scripts, the benchmark or
    # the acceptance suite call, not a name kept for unit tests alone
    import hdalib

    exported = {name for name, v in vars(hdalib).items() if inspect.isfunction(v)}
    users = [SRC / "cli.py", *SCRIPTS, *PERFBENCH, ACCEPTANCE]
    used = set().union(*map(_references, users))
    assert exported and not exported - used, sorted(exported - used)


def _submodule(module: str, name: str):
    """``module.name`` when that names a submodule, else ``None``."""
    full = f"{module}.{name}"
    package = hasattr(importlib.import_module(module), "__path__")
    return full if package and importlib.util.find_spec(full) is not None else None


def _hdalib_reach(path: Path) -> list[tuple[str, str]]:
    """The (module, name) pairs of hdalib that a benchmark file reaches:
    names it imports from hdalib, attributes it reads off an hdalib module
    it imports, and the tracer's ``TARGETS``, which it looks up only when
    it runs."""
    tree = ast.parse(path.read_text(), str(path))
    reached, modules = [], {}  # modules: local name -> hdalib module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hdalib":
            for a in node.names:
                reached.append((node.module, a.name))
                sub = _submodule(node.module, a.name)
                if sub:
                    modules[a.asname or a.name] = sub
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            targets = ast.literal_eval(node.value)
            reached += [(f"hdalib.{m}", name) for m, names in targets.items() for name in names]
    reached += [
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    return reached


def test_benchmark_reaches_only_names_that_exist():
    # the benchmark stays fixed while the library changes, so that runs
    # before and after a change compare, and the tracer looks its targets
    # up only when it runs: a library name the benchmark reaches that is
    # deleted or renamed must fail here, not in a benchmark run
    reached = [pair for path in PERFBENCH for pair in _hdalib_reach(path)]
    missing = sorted(
        f"{m}.{name}"
        for m, name in reached
        if not hasattr(importlib.import_module(m), name) and not _submodule(m, name)
    )
    modules = {m for m, _ in reached}
    assert {"hdalib.hda", "hdalib.ipomset", "hdalib.myhill_nerode"} <= modules
    assert len(reached) > 40 and not missing, missing


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never refers to, with their lines."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    modules = [
        path
        for folder in (SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
        if path != SRC / "__init__.py"
    ]
    found = [hit for path in modules for hit in _unused_imports(path)]
    assert len(modules) > 20 and not found, found
