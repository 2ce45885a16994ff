"""The files every subcommand reads and writes, all of them UTF-8.

CSV tables are read by :func:`read_rows`, or by :func:`read_keyed` when they
hold one row per site.  The long record tables (tips, swath observations,
error samples) are each described once, as a :class:`Table`: columns,
record dtype, and the :class:`Check` conditions on a row, each with its
message.  :func:`read_table` parses such a table whole and runs the checks
over whole columns; for anything it cannot take whole it falls back on
:func:`read_rows` with :meth:`Table.row`, which runs the same checks row
by row, so both accept the same files and raise the same errors.  Grids
and params are read by :func:`read_text` and configs by
:func:`load_config`; configs and params are :func:`parse_pairs` files.
Every read error names the file.  CSV tables are written by
:func:`write_rows` and text files (reports, manifests, grids, params) by
:func:`write_text`, with ``\n`` line ends on every platform.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError


def read_text(path, parse):
    """``parse(text)`` of the file at ``path``.  Bytes that are not UTF-8
    and a :class:`DataError` from ``parse`` (keeping its type) raise with the
    path in front of the message."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 at byte {e.start}") from None
    except DataError as e:
        raise type(e)(f"{path}: {e}") from None


def parse_pairs(text: str) -> dict:
    """``{key: (line number, value)}`` for each stripped ``key=value`` line
    of ``text``, skipping blank and ``#`` lines.  A line without ``=`` or a
    key, or a repeated key, raises :class:`DataError` naming the line."""
    out = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise DataError(f"line {lineno}: expected key=value, "
                            f"got {line!r}")
        if key in out:
            raise DataError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (lineno, value.strip())
    return out


def read_rows(path, columns, convert):
    """Yield ``(line number, convert(row))`` for each non-empty CSV row.

    The first row must equal ``columns`` and every later non-empty row must
    have that many fields.  A wrong header, a wrong field count, text the
    csv module cannot parse (such as a field over its size limit) or a
    ``ValueError`` from ``convert`` raises :class:`DataError` naming the
    file and line, and bytes that are not UTF-8 one naming the file.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != list(columns):
                raise DataError(f"{path}: expected header "
                                f"{','.join(columns)}, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise DataError(f"{path} line {reader.line_num}: "
                                    f"expected {len(columns)} columns")
                try:
                    value = convert(row)
                except ValueError as e:
                    raise DataError(
                        f"{path} line {reader.line_num}: {e}") from None
                yield reader.line_num, value
        except csv.Error as e:
            raise DataError(f"{path} line {reader.line_num}: {e}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8") from None


@dataclass(frozen=True)
class Check:
    """A condition that every row of a record table meets.  ``test`` takes
    the fields named in ``reads``: scalars for one row, arrays for a whole
    file, so it joins conditions with ``&`` and ``|``.  ``message`` is the
    :meth:`str.format` template, over the row's fields, of the
    ``ValueError`` a failing row raises."""

    reads: tuple
    test: Callable
    message: str

    def passes(self, fields):
        """``test`` of its fields in ``fields``, a dict or an array."""
        return self.test(*map(fields.__getitem__, self.reads))


def _enforce(checks, fields: dict) -> None:
    for check in checks:
        if not check.passes(fields):
            raise ValueError(check.message.format_map(fields))


class Table:
    """A record CSV: its header ``columns``, the record ``dtype`` it is read
    into (one field per column), the ``checks`` on its rows, in order, and
    ``parse``: for each field read as text, the function that makes it a
    value of its ``dtype`` type once the checks have passed.

    ``raw`` holds the fields as read from the file: text (``object``) for a
    field with a parser or an ``object`` field, numbers for the rest.
    """

    def __init__(self, columns, dtype, checks, parse=None):
        self.columns = list(columns)
        self.dtype = np.dtype(dtype)
        self.checks = checks
        self.parse = parse or {}
        self.raw = np.dtype([(name, object if name in self.parse
                              else self.dtype[name])
                             for name in self.dtype.names])
        self._numbers = [n for n in self.raw.names if self.raw[n] != object]
        text = [c for c in checks if not set(c.reads) & set(self._numbers)]
        self._stages = (text, [c for c in checks if c not in text])

    def row(self, row) -> tuple:
        """One CSV row as a tuple of ``dtype``'s fields.  The checks that
        read text alone run first, then every number is converted with
        ``float`` in column order, then the other checks run.  A failed
        conversion or check raises ``ValueError``."""
        fields = dict(zip(self.dtype.names, row))
        text, rest = self._stages
        _enforce(text, fields)
        for name in self._numbers:
            fields[name] = float(fields[name])
        _enforce(rest, fields)
        for name, parse in self.parse.items():
            fields[name] = parse(fields[name])
        return tuple(fields.values())


def _read_whole(path, table: Table) -> np.recarray:
    """The table at ``path`` if ``np.loadtxt`` parses the lines after an
    exact header and every row passes, else ``ValueError``."""
    with open(path, encoding="utf-8") as f:
        header, _, body = f.read().partition("\n")
    if header != ",".join(table.columns) or '"' in body:
        raise ValueError("not parsed whole")
    lines = body.split("\n")
    del body
    if max(map(len, lines)) > csv.field_size_limit():
        raise ValueError("not parsed whole")
    with warnings.catch_warnings():
        # loadtxt warns about a body without rows
        warnings.simplefilter("ignore", UserWarning)
        raw = np.loadtxt(lines, dtype=table.raw, delimiter=",",
                         comments=None, quotechar=None, ndmin=1)
    del lines
    if not all(np.all(check.passes(raw)) for check in table.checks):
        raise ValueError("a row fails a check")
    return np.rec.fromarrays(
        [np.fromiter(map(table.parse[n], raw[n].tolist()), table.dtype[n],
                     raw.size) if n in table.parse else raw[n]
         for n in raw.dtype.names], dtype=table.dtype)


def read_table(path, table: Table) -> np.recarray:
    """The record CSV at ``path`` as a record array of ``table.dtype``, in
    file order, parsed whole instead of row by row.

    ``np.loadtxt`` parses the lines after an exact header into ``table.raw``
    (a fixed-width ``U`` field would truncate text silently), every check
    runs over whole columns, and the parsers over the text fields.  Both
    parsers give a number the same double (``PyOS_string_to_double``).
    The file's text is dropped once split into lines, and the lines once
    parsed.

    Whatever is not taken whole this way (any other header, a ``"``, which
    csv reads as a quote, a line over csv's field size limit, a body
    loadtxt refuses, a row that fails a check or a parser) is read again
    by :func:`read_rows` with :meth:`Table.row`, whose rows make the table.
    So the errors are :func:`read_rows`' own, naming file and line, and
    what only csv and ``float`` accept (quoted fields, ``1_0``) is read as
    before.
    """
    try:
        return _read_whole(path, table)
    except ValueError:  # UnicodeDecodeError among them
        pass
    rows = [value for _, value in read_rows(path, table.columns, table.row)]
    return np.array(rows, dtype=table.dtype).view(np.recarray)


def read_keyed(path, columns, convert) -> dict:
    """``{first field: convert(row)}`` for each row read by :func:`read_rows`,
    in file order.  The first field is a site id, and a site listed twice
    raises :class:`DataError` naming the file and the second line."""
    out = {}
    for lineno, (key, value) in read_rows(
            path, columns, lambda row: (row[0], convert(row))):
        if key in out:
            raise DataError(f"{path} line {lineno}: duplicate site {key}")
        out[key] = value
    return out


@dataclass(frozen=True)
class Field:
    """One config key.  Kinds ``in`` and ``out`` are strings naming an input
    or an output file; they read like ``str``.  Kinds ``float`` and
    ``floats`` accept finite numbers only."""

    kind: str                 # str | in | out | int | float | floats | strs
    required: bool = False
    default: object = None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _convert(where: str, key: str, raw: str, kind: str):
    """``raw`` as a value of ``kind``; a bad value raises a ConfigError whose
    message starts with ``where``, the file and line it came from."""
    try:
        if kind in ("str", "in", "out"):
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "floats":
            return tuple(_finite(t) for t in raw.split(",") if t.strip())
        if kind == "strs":
            return tuple(t.strip() for t in raw.split(",") if t.strip())
    except ValueError as e:
        raise ConfigError(f"{where}: config key {key!r}: bad value {raw!r} "
                          f"({e})") from None
    raise ConfigError(f"internal: unknown field kind {kind!r}")


def load_config(path, schema: dict) -> dict:
    """Read a config file and type-check it against ``schema``, rejecting
    unknown keys so typos fail fast.  Every failure is a ConfigError naming
    the file, and the line for an unknown key or a bad value."""
    try:
        raw = read_text(path, parse_pairs)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except DataError as e:
        raise ConfigError(str(e)) from None

    for key, (lineno, _) in raw.items():
        if key not in schema:
            raise ConfigError(f"{path}: line {lineno}: unknown config key "
                              f"{key!r}")

    out = {}
    for key, field in schema.items():
        if key in raw:
            lineno, value = raw[key]
            out[key] = _convert(f"{path}: line {lineno}", key, value,
                                field.kind)
        elif field.required:
            raise ConfigError(f"{path}: missing required config key {key!r}")
        else:
            out[key] = field.default
    return out


def write_rows(path, columns, rows) -> None:
    """Write a CSV table: the ``columns`` header, then each of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def write_text(path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(text)
