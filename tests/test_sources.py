"""Rules on the package's own source, checked by parsing it."""

import ast
from pathlib import Path

import rainstats

SRC = Path(rainstats.__file__).parent


def _open_calls(path):
    """``(function name, call text)`` for each call of ``open`` in ``path``;
    the function is the innermost one around the call, or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return [(owner.get(id(node)), ast.unparse(node))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "open" in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))]


def test_only_tables_opens_files():
    # files are decoded, and decode errors named, in one place; the manifest
    # hashes raw bytes
    calls = [(path.stem, *call) for path in sorted(SRC.glob("*.py"))
             if path.stem != "tables" for call in _open_calls(path)]
    assert calls == [("cli", "_sha256", "open(path, 'rb')")]
    assert _open_calls(SRC / "tables.py")
