"""Rules on the package's own source, checked by parsing it."""

import ast
from collections import defaultdict
from pathlib import Path

import rainstats

SRC = Path(rainstats.__file__).parent


def _calls(path, names):
    """``(function name, call text)`` for each call in ``path`` of one of
    ``names``, bare or as an attribute; the function is the innermost one
    around the call, or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return [(owner.get(id(node)), ast.unparse(node))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and names & {getattr(node.func, "id", None),
                         getattr(node.func, "attr", None)}]


def _open_calls(path):
    """:func:`_calls` of ``open`` in ``path``."""
    return _calls(path, {"open"})


def test_only_tables_opens_files():
    # files are decoded, and decode errors named, in one place; the manifest
    # hashes raw bytes
    calls = [(path.stem, *call) for path in sorted(SRC.glob("*.py"))
             if path.stem != "tables" for call in _open_calls(path)]
    assert calls == [("cli", "_sha256", "open(path, 'rb')")]
    assert _open_calls(SRC / "tables.py")


#: numpy's functions that read a file given its name
NUMPY_FILE_READERS = {"loadtxt", "genfromtxt", "fromfile", "load"}


def test_only_tables_calls_numpy_file_readers():
    # they open files too, and would bypass the fallback that gives every
    # malformed table its file-and-line error
    calls = [(path.stem, *call) for path in sorted(SRC.glob("*.py"))
             if path.stem != "tables"
             for call in _calls(path, NUMPY_FILE_READERS)]
    assert calls == []
    assert _calls(SRC / "tables.py", NUMPY_FILE_READERS)


#: Public definitions kept without a caller in the package, with the reason.
UNCALLED = {
    # waits on the end-to-end check of the paper's result (ROADMAP item 7)
    ("evaluation", "station_comparison"),
}


def _callers(module, tree):
    """``(name, (module, top-level definition))`` for each name the module
    reads, bare or as an attribute; the definition is None outside one.
    Strings, docstrings among them, are not read names."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                yield (getattr(node, "id", None) or node.attr,
                       (module, getattr(stmt, "name", None)))


def test_every_public_definition_has_a_caller():
    # library code that no subcommand reaches is deleted or moved to tests
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    callers = defaultdict(set)
    for module, tree in trees.items():
        for name, caller in _callers(module, tree):
            callers[name].add(caller)
    unused = [(module, node.name) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not callers[node.name] - {(module, node.name)}
              and node.name not in rainstats.__all__
              and (module, node.name) not in UNCALLED]
    assert unused == []
