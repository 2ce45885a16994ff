"""Rules on the package's own source, checked by parsing it."""

import ast
from pathlib import Path

import rainstats

SRC = Path(rainstats.__file__).parent


def _owned(path, keep):
    """``(function name, node text)`` for each node in ``path`` for which
    ``keep`` is true; the function is the innermost one around the node,
    or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return [(owner.get(id(node)), ast.unparse(node))
            for node in ast.walk(tree) if keep(node)]


def _calls(path, names):
    """:func:`_owned` calls of one of ``names``, bare or as an attribute."""
    return _owned(path, lambda node: isinstance(node, ast.Call) and names & {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)})


def _open_calls(path):
    """:func:`_calls` of ``open`` in ``path``."""
    return _calls(path, {"open"})


def _mode(call):
    """The mode of the ``open`` call whose text is ``call``."""
    node = ast.parse(call, mode="eval").body
    given = [*node.args[1:2], *(k.value for k in node.keywords
                                 if k.arg == "mode")]
    return ast.literal_eval(given[0]) if given else "r"


def test_only_tables_opens_files():
    # files are decoded, and decode errors named, in one place; the manifest
    # hashes raw bytes
    calls = [(path.stem, *call) for path in sorted(SRC.glob("*.py"))
             if path.stem != "tables" for call in _open_calls(path)]
    assert calls == [("cli", "_sha256", "open(path, 'rb')")]
    assert _open_calls(SRC / "tables.py")
    # and there read_text alone opens one to read it, a CSV as every other
    # input; the writers open theirs to write
    assert [owner for owner, call in _open_calls(SRC / "tables.py")
            if "r" in _mode(call)] == ["read_text"]


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


def _imported(path):
    """The top-level packages of the absolute imports in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_only_tables_imports_csv():
    # every CSV is split, and its fields converted and checked, in one
    # place, by the steps of its table description
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 if "csv" in _imported(path)]
    assert importers == ["tables"]


def _nodata_equalities(path):
    """The text of each ``==`` or ``!=`` comparison in ``path`` that reads
    an attribute named ``nodata``."""
    return [ast.unparse(node)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(isinstance(sub, ast.Attribute) and sub.attr == "nodata"
                    for sub in ast.walk(node))]


def test_only_raster_compares_values_with_the_nodata_sentinel():
    # a value interpolated from valid cells can equal the sentinel; raster
    # marks missing cells (valid_mask) and missing samples (NaN) itself
    found = [(path.stem, text) for path in sorted(SRC.glob("*.py"))
             if path.stem != "raster" for text in _nodata_equalities(path)]
    assert found == []
    assert _nodata_equalities(SRC / "raster.py")


#: The fields that place a geometry's cells on the globe.
PLACEMENT = {"xll", "yll", "cell", "lat_max", "lon_max"}


def _placement_reads(path):
    """:func:`_owned` reads of an attribute named in :data:`PLACEMENT`."""
    return _owned(path, lambda node: isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and node.attr in PLACEMENT)


def test_only_raster_reads_a_geometrys_placement():
    # the registration (lower-left corner, centers at half cells, north row
    # first) is stated once, in GridGeometry.center and cell_at
    found = [(path.stem, *read) for path in sorted(SRC.glob("*.py"))
             if path.stem != "raster" for read in _placement_reads(path)]
    assert found == []
    assert _placement_reads(SRC / "raster.py")


#: The release criteria, whose imports are callers too.
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _reads(tree):
    """``(name, top-level definition)`` for each name a module reads, bare
    or as an attribute; the definition is None outside one.  Strings,
    docstrings among them, are not read names."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                yield (getattr(node, "id", None) or node.attr,
                       getattr(stmt, "name", None))


def _package_imports(tree):
    """The names that ``from ... import`` statements of the package's own
    modules bind in ``tree``."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.partition(".")[0] == "rainstats")
            for alias in node.names}


def _used_names(trees):
    """The names that a statement of the package reads outside a top-level
    definition of that name, and those the release criteria import."""
    used = {name for tree in trees.values()
            for name, owner in _reads(tree) if owner != name}
    criteria = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return used | _package_imports(criteria)


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_every_public_definition_has_a_caller():
    # library code that neither a subcommand nor a release criterion
    # reaches is deleted or moved to tests; being exported is not a use
    trees = _package_trees()
    used = _used_names(trees)
    unused = {(module, node.name) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used}
    assert unused == set()


def test_all_is_what_init_imports_and_the_package_uses():
    trees = _package_trees()
    assert _package_imports(trees["__init__"]) <= set(rainstats.__all__)
    assert set(rainstats.__all__) <= _used_names(trees)


def _caught(tree):
    """The names that the ``except`` clauses in ``tree`` catch, bare, as an
    attribute or in a tuple."""
    return {getattr(node, "id", None) or getattr(node, "attr", None)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type
            for node in ast.walk(handler.type)}


def test_every_error_type_is_caught_somewhere():
    # an exception type is worth its class when some caller tells it apart;
    # the rest are raised as the type whose exit code they share
    trees = _package_trees()
    defined = {node.name for node in trees["errors"].body
               if isinstance(node, ast.ClassDef)}
    caught = set().union(*map(_caught, trees.values()))
    assert defined - caught == set()


#: The names of the config checks that handlers made before the rules were
#: declared in the schemas.
CONFIG_CHECKS = {"ConfigError", "_config_check", "_validate_ladder"}


def test_no_handler_checks_its_config():
    # every config rule is declared in its subcommand's schema and checked
    # once, before the handler runs; a handler reads, computes and writes
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert len(handlers) == 6
    calls = [(handler.name, ast.unparse(node)) for handler in handlers
             for node in ast.walk(handler) if isinstance(node, ast.Call)
             and CONFIG_CHECKS & {getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None)}]
    assert calls == []


def _rewraps(path):
    """:func:`_owned` ``except ... as e`` handlers that raise
    ``DataError(...)`` with arguments that read ``e``."""
    def rewraps(node):
        return isinstance(node, ast.ExceptHandler) and node.name and any(
            isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call)
            and getattr(sub.exc.func, "id", None) == "DataError"
            and any(isinstance(name, ast.Name) and name.id == node.name
                    for arg in [*sub.exc.args, *sub.exc.keywords]
                    for name in ast.walk(arg))
            for sub in ast.walk(node))
    return _owned(path, rewraps)


#: The modules whose data errors name the file, line or site at fault.
BLAMING = ("cli", "climatology", "raster", "tables")


def test_data_errors_are_attributed_by_blamed():
    # a data error's message names what is at fault, from the outside in,
    # through nested errors.blamed blocks, not a handler written out each time
    found = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             if path.stem != "errors" for owner, _ in _rewraps(path)]
    assert found == []
    assert all(_calls(SRC / f"{module}.py", {"blamed"}) for module in BLAMING)
    assert _rewraps(SRC / "errors.py")
